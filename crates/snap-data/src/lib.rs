//! # snap-data — workloads and substituted datasets
//!
//! Deterministic generators standing in for the data the paper used but
//! we cannot ship: NOAA weather-station files (→ [`noaa`]), natural-text
//! corpora for word count (→ [`corpus`]), and the Women in Computing Day
//! survey cohort (→ [`survey`]). Each substitution is documented in
//! `DESIGN.md`; all generators are pure functions of their seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod io;
pub mod noaa;
pub mod survey;

pub use corpus::{generate_word_values, generate_words, reference_counts, SAMPLE_SENTENCE};
pub use io::{
    parse_csv, parse_list, read_csv, read_list, read_noaa_csv, write_csv, write_list,
    write_noaa_csv,
};
pub use noaa::{f_to_c, generate as generate_noaa, NoaaConfig, NoaaDataset, Reading, Station};
pub use survey::{simulate_cohort, tabulate, Response, SurveyTable, PAPER_TABLE};

//! The three block-program workloads, their seeded inputs and the
//! reference each run's output is checked against.
//!
//! Everything here runs on the benchmark's side: inputs come from
//! `snap-data` and the seed, the program receives only the project XML,
//! and the references are computed without the program.

use std::collections::BTreeMap;

use snap_ast::builder::*;
use snap_ast::{Constant, Project, Script, SpriteDef, Stmt, Value};
use snap_data::{generate_noaa, generate_words, NoaaConfig};

/// Relative tolerance of the climate mean against the reference: the
/// program folds converted readings one by one, the reference converts
/// the mean, so the two differ only by float rounding.
pub const CLIMATE_REL_TOL: f64 = 1e-9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `parallelMap (( ) × 10)` over a long number range (Figs. 5–6).
    E2ParallelMap,
    /// MapReduce word count over a Zipf corpus (Figs. 11–12).
    E4WordCount,
    /// MapReduce climate average over NOAA-style readings (Fig. 13).
    E5Climate,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::E2ParallelMap,
        Workload::E4WordCount,
        Workload::E5Climate,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E2ParallelMap => "e2_parallel_map",
            Workload::E4WordCount => "e4_wordcount",
            Workload::E5Climate => "e5_climate",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input items at full size. On a busy 2-vCPU host a warm run then
    /// takes about 0.1–0.2 s; on a quiet one 40–85 ms, with e2's set-up
    /// as short as a warm run and e4's and e5's about 0.3 s.
    pub fn full_items(self) -> usize {
        match self {
            Workload::E2ParallelMap => 2_000_000,
            Workload::E4WordCount => 200_000,
            // 400 stations × 40 years × 12 monthly readings.
            Workload::E5Climate => 192_000,
        }
    }

    /// Generate the instance for `seed` with about `items` input items.
    pub fn instance(self, seed: u64, items: usize) -> Instance {
        match self {
            Workload::E2ParallelMap => e2_instance(seed, items),
            Workload::E4WordCount => e4_instance(seed, items),
            Workload::E5Climate => e5_instance(seed, items),
        }
    }
}

/// What a correct run leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// e2: global `ys` holds `10·(start + i)` for `i` in `0..n`, and the
    /// sprite says its last item.
    Scaled {
        /// First number of the range.
        start: f64,
        /// Range length.
        n: usize,
    },
    /// e4: the exact `say` text of the word counts.
    Said(String),
    /// e5: `[[avg, m]]` with `m` within [`CLIMATE_REL_TOL`] of `celsius`.
    Mean {
        /// Reference mean in °C.
        celsius: f64,
    },
}

/// One generated workload instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Input items one run processes.
    pub items: usize,
    /// The project as XML text: all the program receives.
    pub xml: String,
    /// The reference output.
    pub expected: Expected,
}

impl Instance {
    /// Check one finished run: its `say` text and, for e2, the `ys`
    /// global. Returns why the output is wrong, if it is.
    pub fn check(&self, said: Option<&str>, globals_ys: Option<&Value>) -> Result<(), String> {
        let said = said.ok_or("the program said nothing")?;
        match &self.expected {
            Expected::Scaled { start, n } => {
                let last = Value::format_number(10.0 * (start + (*n as f64 - 1.0)));
                if said != last {
                    return Err(format!("said {said:?}, expected {last:?}"));
                }
                let list = globals_ys
                    .and_then(Value::as_list)
                    .ok_or("global ys is not a list")?;
                list.with_items(|ys| {
                    if ys.len() != *n {
                        return Err(format!("ys has {} items, expected {n}", ys.len()));
                    }
                    for (i, y) in ys.iter().enumerate() {
                        let want = 10.0 * (start + i as f64);
                        if *y != Value::Number(want) {
                            return Err(format!("ys[{}] = {y}, expected {want}", i + 1));
                        }
                    }
                    Ok(())
                })
            }
            Expected::Said(want) => {
                if said == want {
                    Ok(())
                } else {
                    Err(format!("word counts differ: said {} bytes", said.len()))
                }
            }
            Expected::Mean { celsius } => {
                let got: f64 = said
                    .strip_prefix("[[avg, ")
                    .and_then(|rest| rest.strip_suffix("]]"))
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("said {said:?}, expected [[avg, <number>]]"))?;
                if (got - celsius).abs() <= CLIMATE_REL_TOL * celsius.abs().max(1.0) {
                    Ok(())
                } else {
                    Err(format!("mean {got} °C, expected {celsius} °C"))
                }
            }
        }
    }
}

/// A one-sprite project whose green-flag script is `body`.
fn project(name: &str, globals: Vec<(&str, Constant)>, body: Vec<Stmt>) -> Project {
    let mut project = Project::new(name);
    for (var, value) in globals {
        project = project.with_global(var, value);
    }
    project.with_sprite(SpriteDef::new("Sprite").with_script(Script::on_green_flag(body)))
}

/// e2: `set ys to parallelMap (( ) × 10) over (numbers from S to S+N−1)`
/// then `say item N of ys`. The seed picks the range start S.
fn e2_instance(seed: u64, n: usize) -> Instance {
    let start = (1 + seed % 1_000_000) as f64;
    let last = start + (n as f64 - 1.0);
    let body = vec![
        set_var(
            "ys",
            parallel_map_over(
                ring_reporter(mul(empty_slot(), num(10.0))),
                numbers_from_to(num(start), num(last)),
            ),
        ),
        say(item(num(n as f64), var("ys"))),
    ];
    let xml = project("e2_parallel_map", vec![("ys", Constant::Number(0.0))], body).to_xml();
    Instance {
        items: n,
        xml,
        expected: Expected::Scaled { start, n },
    }
}

/// e4 (Fig. 11): `say (mapReduce ([w, 1]) (combine using +) over words)`
/// with `words` a global holding a seeded Zipf corpus.
fn e4_instance(seed: u64, n: usize) -> Instance {
    let words = generate_words(n, seed);
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for w in &words {
        *counts.entry(w).or_default() += 1;
    }
    let pairs: Vec<String> = counts.iter().map(|(w, c)| format!("[{w}, {c}]")).collect();
    let expected = Expected::Said(format!("[{}]", pairs.join(", ")));
    let body = vec![say(map_reduce(
        ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
        ring_reporter_with(
            vec!["vals"],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ),
        var("words"),
    ))];
    let corpus = Constant::List(words.into_iter().map(Constant::Text).collect());
    Instance {
        items: n,
        xml: project("e4_wordcount", vec![("words", corpus)], body).to_xml(),
        expected,
    }
}

/// e5 (Fig. 13): `say (mapReduce (["avg", (5 × (t − 32)) / 9])
/// (combine ÷ length) over temps)` with `temps` a global holding seeded
/// monthly readings of 40 years; `n` sets the station count.
fn e5_instance(seed: u64, n: usize) -> Instance {
    let (years, per_year) = (40, 12);
    let config = NoaaConfig {
        stations: n.div_ceil(years * per_year).max(1),
        years: years as u32,
        readings_per_year: per_year as u16,
        seed,
        ..NoaaConfig::default()
    };
    let temps: Vec<f64> = generate_noaa(&config)
        .readings
        .iter()
        .map(|r| r.temp_f)
        .collect();
    let mean_f = temps.iter().sum::<f64>() / temps.len() as f64;
    let body = vec![say(map_reduce(
        ring_reporter_with(
            vec!["t"],
            make_list(vec![
                text("avg"),
                div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
            ]),
        ),
        ring_reporter_with(
            vec!["vals"],
            div(
                combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                length_of(var("vals")),
            ),
        ),
        var("temps"),
    ))];
    let items = temps.len();
    let readings = Constant::List(temps.into_iter().map(Constant::Number).collect());
    Instance {
        items,
        xml: project("e5_climate", vec![("temps", readings)], body).to_xml(),
        expected: Expected::Mean {
            celsius: 5.0 * (mean_f - 32.0) / 9.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("e3_concession"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = w.instance(7, 2_000);
            assert_eq!(a.xml, w.instance(7, 2_000).xml, "{}", w.name());
            assert_ne!(a.xml, w.instance(8, 2_000).xml, "{}", w.name());
        }
    }

    #[test]
    fn climate_sizes_follow_stations() {
        assert_eq!(Workload::E5Climate.instance(1, 192_000).items, 192_000);
    }

    #[test]
    fn checks_reject_wrong_outputs() {
        let e2 = Workload::E2ParallelMap.instance(4, 3);
        let ys = Value::number_list([50.0, 60.0, 70.0]);
        assert_eq!(e2.check(Some("70"), Some(&ys)), Ok(()));
        assert!(e2
            .check(Some("70"), Some(&Value::number_list([50.0, 61.0, 70.0])))
            .is_err());
        assert!(e2.check(Some("71"), Some(&ys)).is_err());
        assert!(e2.check(None, Some(&ys)).is_err());

        let e5 = Instance {
            expected: Expected::Mean { celsius: 12.5 },
            ..Workload::E5Climate.instance(1, 480)
        };
        assert_eq!(e5.check(Some("[[avg, 12.5]]"), None), Ok(()));
        assert!(e5.check(Some("[[avg, 12.6]]"), None).is_err());
        assert!(e5.check(Some("[[avg, x]]"), None).is_err());
    }
}

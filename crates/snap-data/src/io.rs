//! File ingestion and export.
//!
//! §6.3: "the Snap! environment needs a way to ingest larger amounts of
//! data without having to enter them one by one into a list box. For
//! production use, it needs to have a way to consume existing data
//! files. Likewise, it needs a way to write data to files for use by
//! other programs outside of Snap!." This module is that feature: lists
//! of values ↔ text files (one item per line), tabular data ↔ CSV, and
//! the NOAA-style dataset ↔ the CSV layout a real station file would
//! use.

use std::io::{self, Write};
use std::path::Path;

use snap_ast::{List, Value};

use crate::noaa::{NoaaDataset, Reading, Station};

/// Read a text file into a Snap! list, one item per line. Numeric lines
/// become numbers (like typing them into a list box); everything else
/// stays text.
pub fn read_list(path: &Path) -> io::Result<List> {
    let content = std::fs::read_to_string(path)?;
    Ok(parse_list(&content))
}

/// The parsing half of [`read_list`], separated for tests.
pub fn parse_list(content: &str) -> List {
    content
        .lines()
        .map(|line| {
            let trimmed = line.trim_end_matches('\r');
            match trimmed.parse::<f64>() {
                Ok(n) => Value::Number(n),
                Err(_) => Value::text(trimmed),
            }
        })
        .collect()
}

/// Write a Snap! list to a text file, one item per line (nested lists
/// are rendered with their display form).
pub fn write_list(path: &Path, list: &List) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for item in list.to_vec() {
        writeln!(file, "{}", item.to_display_string())?;
    }
    Ok(())
}

/// Read a CSV file into a list of row-lists (numeric cells become
/// numbers). The first row is returned too — callers decide whether it
/// is a header. Quoting is the minimal practical subset: double quotes
/// around cells containing commas.
pub fn read_csv(path: &Path) -> io::Result<List> {
    let content = std::fs::read_to_string(path)?;
    Ok(parse_csv(&content))
}

/// The parsing half of [`read_csv`].
pub fn parse_csv(content: &str) -> List {
    content
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let cells: Vec<Value> = split_csv_line(line.trim_end_matches('\r'))
                .into_iter()
                .map(|cell| match cell.parse::<f64>() {
                    Ok(n) => Value::Number(n),
                    Err(_) => Value::Text(cell),
                })
                .collect();
            Value::list(cells)
        })
        .collect()
}

fn split_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                current.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                cells.push(std::mem::take(&mut current));
            }
            other => current.push(other),
        }
    }
    cells.push(current);
    cells
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// Write a list of row-lists as CSV.
pub fn write_csv(path: &Path, rows: &List) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    for row in rows.to_vec() {
        let line = match row.as_list() {
            Some(cells) => cells
                .to_vec()
                .iter()
                .map(|c| csv_escape(&c.to_display_string()))
                .collect::<Vec<_>>()
                .join(","),
            None => csv_escape(&row.to_display_string()),
        };
        writeln!(file, "{line}")?;
    }
    Ok(())
}

/// The CSV header for NOAA-style readings.
pub const NOAA_CSV_HEADER: &str = "station,latitude,year,day,temp_f";

/// Export a synthetic dataset to the CSV layout a real NOAA station file
/// would use.
pub fn write_noaa_csv(path: &Path, dataset: &NoaaDataset) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{NOAA_CSV_HEADER}")?;
    for r in &dataset.readings {
        let latitude = dataset
            .stations
            .iter()
            .find(|s| s.id == r.station)
            .map(|s| s.latitude)
            .unwrap_or(0.0);
        writeln!(
            file,
            "{},{:.4},{},{},{:.3}",
            r.station, latitude, r.year, r.day, r.temp_f
        )?;
    }
    Ok(())
}

/// Re-ingest a NOAA CSV (as written by [`write_noaa_csv`], or hand-made
/// in the same layout).
pub fn read_noaa_csv(path: &Path) -> io::Result<NoaaDataset> {
    let content = std::fs::read_to_string(path)?;
    let mut stations: Vec<Station> = Vec::new();
    let mut readings = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if i == 0 || line.trim().is_empty() {
            continue; // header
        }
        let cells = split_csv_line(line);
        if cells.len() != 5 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: expected 5 columns, got {}", i + 1, cells.len()),
            ));
        }
        let parse_num = |cell: &str, what: &str| {
            cell.parse::<f64>().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad {what}: {cell:?}", i + 1),
                )
            })
        };
        let station = cells[0].clone();
        let latitude = parse_num(&cells[1], "latitude")?;
        let year = parse_num(&cells[2], "year")? as u32;
        let day = parse_num(&cells[3], "day")? as u16;
        let temp_f = parse_num(&cells[4], "temperature")?;
        if !stations.iter().any(|s| s.id == station) {
            stations.push(Station {
                id: station.clone(),
                latitude,
                base_temp_f: f64::NAN, // unknown from a file; not used downstream
            });
        }
        readings.push(Reading {
            station,
            year,
            day,
            temp_f,
        });
    }
    Ok(NoaaDataset { stations, readings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noaa::{generate, NoaaConfig};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("psnap-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn list_roundtrips_through_a_file() {
        let path = tmp("list.txt");
        let list = List::from_vec(vec![1.5.into(), "hello".into(), 42.into()]);
        write_list(&path, &list).unwrap();
        let back = read_list(&path).unwrap();
        assert_eq!(back.to_vec(), list.to_vec());
    }

    #[test]
    fn parse_list_types_cells_like_a_list_box() {
        let list = parse_list("3\n7.5\nword\n");
        assert_eq!(
            list.to_vec(),
            vec![3.into(), 7.5.into(), Value::text("word")]
        );
    }

    #[test]
    fn csv_roundtrips_with_quoting() {
        let path = tmp("table.csv");
        let rows = List::from_vec(vec![
            Value::list(vec!["plain".into(), 1.into()]),
            Value::list(vec!["with, comma".into(), 2.into()]),
            Value::list(vec!["with \"quote\"".into(), 3.into()]),
        ]);
        write_csv(&path, &rows).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.len(), 3);
        let row2 = back.item(2).unwrap();
        assert_eq!(
            row2.as_list().unwrap().item(1).unwrap(),
            Value::text("with, comma")
        );
        let row3 = back.item(3).unwrap();
        assert_eq!(
            row3.as_list().unwrap().item(1).unwrap(),
            Value::text("with \"quote\"")
        );
    }

    #[test]
    fn noaa_csv_roundtrips_readings() {
        let dataset = generate(&NoaaConfig {
            stations: 3,
            years: 2,
            readings_per_year: 4,
            ..NoaaConfig::default()
        });
        let path = tmp("noaa.csv");
        write_noaa_csv(&path, &dataset).unwrap();
        let back = read_noaa_csv(&path).unwrap();
        assert_eq!(back.readings.len(), dataset.readings.len());
        assert_eq!(back.stations.len(), dataset.stations.len());
        for (a, b) in back.readings.iter().zip(&dataset.readings) {
            assert_eq!(a.station, b.station);
            assert_eq!(a.year, b.year);
            assert!(
                (a.temp_f - b.temp_f).abs() < 1e-3,
                "3-decimal CSV precision"
            );
        }
    }

    #[test]
    fn bad_noaa_rows_are_rejected_with_line_numbers() {
        let path = tmp("bad.csv");
        std::fs::write(&path, format!("{NOAA_CSV_HEADER}\nST0,37.0,oops,1,55\n")).unwrap();
        let err = read_noaa_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::write(&path, format!("{NOAA_CSV_HEADER}\nST0,37.0,1990\n")).unwrap();
        let err = read_noaa_csv(&path).unwrap_err();
        assert!(err.to_string().contains("5 columns"));
    }

    #[test]
    fn csv_parsing_handles_blank_lines_crlf_and_quoted_cells() {
        let rows = parse_csv("a,1\r\n\r\n   \nb,\"x,\"\"y\"\"\",,2.5\r\n");
        assert_eq!(rows.len(), 2, "blank and whitespace-only lines are skipped");
        assert_eq!(
            rows.item(1).unwrap(),
            Value::list(vec![Value::text("a"), 1.into()])
        );
        // A quoted cell keeps its comma, a doubled quote is one quote,
        // and an empty cell stays an empty text cell.
        assert_eq!(
            rows.item(2).unwrap(),
            Value::list(vec![
                Value::text("b"),
                Value::text("x,\"y\""),
                Value::text(""),
                2.5.into(),
            ])
        );
    }

    #[test]
    fn nested_lists_are_written_in_display_form() {
        let path = tmp("nested.txt");
        let list = List::from_vec(vec![
            Value::list(vec![1.into(), Value::list(vec!["a".into()])]),
            true.into(),
        ]);
        write_list(&path, &list).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1, [a]]\ntrue\n");
        // Read back, each line is one item: text unless it is a number.
        let back = read_list(&path).unwrap();
        assert_eq!(
            back.to_vec(),
            vec![Value::text("[1, [a]]"), Value::text("true")]
        );
        assert_eq!(
            parse_list("5\r\nx\r\n").to_vec(),
            vec![5.into(), Value::text("x")]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_an_empty_list() {
        let list = parse_list("");
        assert!(list.is_empty());
        assert!(parse_csv("").is_empty());
    }
}

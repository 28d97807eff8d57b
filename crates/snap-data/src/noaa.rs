//! Synthetic NOAA-style weather-station data.
//!
//! The paper's climate exercise (§3.4) uses "weather station data from
//! the National Ocean and Atmospheric Administration (NOAA), which
//! contain temperatures in Fahrenheit". We have no NOAA files, so this
//! generator is the documented substitution: per-station daily
//! temperatures with a latitude-dependent base, a seasonal cycle, a
//! configurable warming trend, and deterministic noise — the same
//! structure (many °F readings to convert and average) the classroom
//! exercise processes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use snap_ast::Value;

/// A simulated weather station.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Station identifier, e.g. `"ST003"`.
    pub id: String,
    /// Latitude in degrees (drives the base temperature).
    pub latitude: f64,
    /// Annual-mean temperature at this station, °F.
    pub base_temp_f: f64,
}

/// One temperature reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The reporting station's id.
    pub station: String,
    /// Calendar year.
    pub year: u32,
    /// Day of year, 1-based.
    pub day: u16,
    /// Temperature in Fahrenheit.
    pub temp_f: f64,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct NoaaConfig {
    /// Number of stations.
    pub stations: usize,
    /// First year (inclusive).
    pub start_year: u32,
    /// Number of years.
    pub years: u32,
    /// Readings per station per year (365 = daily, 12 = monthly means).
    pub readings_per_year: u16,
    /// Warming trend in °F per decade, applied linearly.
    pub warming_f_per_decade: f64,
    /// Standard deviation of day-to-day noise, °F.
    pub noise_std_f: f64,
    /// RNG seed — identical configs generate identical datasets.
    pub seed: u64,
}

impl Default for NoaaConfig {
    fn default() -> Self {
        NoaaConfig {
            stations: 50,
            start_year: 1980,
            years: 40,
            readings_per_year: 365,
            warming_f_per_decade: 0.35,
            noise_std_f: 6.0,
            seed: 0xC11A7E,
        }
    }
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct NoaaDataset {
    /// The stations.
    pub stations: Vec<Station>,
    /// All readings, station-major then chronological.
    pub readings: Vec<Reading>,
}

/// Generate a dataset. Deterministic in the config.
pub fn generate(config: &NoaaConfig) -> NoaaDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stations = Vec::with_capacity(config.stations);
    for i in 0..config.stations {
        // Spread stations across the contiguous-US latitude band.
        let latitude = 25.0 + 24.0 * (i as f64 + 0.5) / config.stations.max(1) as f64;
        // Warmer near 25°N (~75 °F annual mean), cooler near 49°N (~45 °F).
        let base_temp_f = 75.0 - (latitude - 25.0) * 1.25 + rng.random_range(-3.0..3.0);
        stations.push(Station {
            id: format!("ST{i:03}"),
            latitude,
            base_temp_f,
        });
    }

    let per_year = config.readings_per_year.max(1);
    let mut readings =
        Vec::with_capacity(config.stations * config.years as usize * per_year as usize);
    for station in &stations {
        for y in 0..config.years {
            let year = config.start_year + y;
            let trend = config.warming_f_per_decade * (y as f64 / 10.0);
            for r in 0..per_year {
                let day = 1 + (r as f64 * 365.0 / per_year as f64) as u16;
                // Seasonal cycle peaking around day 200 (mid-July);
                // amplitude grows with latitude.
                let amplitude = 12.0 + (station.latitude - 25.0) * 0.6;
                let phase = (day as f64 - 200.0) / 365.0 * std::f64::consts::TAU;
                let seasonal = amplitude * phase.cos();
                // Uniform noise (simple, bounded, deterministic); the
                // configured std maps to a matching uniform half-width.
                let half_width = config.noise_std_f * 1.732;
                let noise = if half_width > 0.0 {
                    rng.random_range(-half_width..half_width)
                } else {
                    0.0
                };
                readings.push(Reading {
                    station: station.id.clone(),
                    year,
                    day,
                    temp_f: station.base_temp_f + seasonal + trend + noise,
                });
            }
        }
    }
    NoaaDataset { stations, readings }
}

impl NoaaDataset {
    /// Just the °F values, as Snap! list items — the input to the
    /// paper's climate MapReduce (Fig. 13).
    pub fn temps_f_values(&self) -> Vec<Value> {
        self.readings
            .iter()
            .map(|r| Value::Number(r.temp_f))
            .collect()
    }

    /// `(station id, °F)` pairs — the input to the generated OpenMP
    /// MapReduce program.
    pub fn station_temp_pairs(&self) -> Vec<(String, f64)> {
        self.readings
            .iter()
            .map(|r| (r.station.clone(), r.temp_f))
            .collect()
    }

    /// Mean temperature in Fahrenheit.
    pub fn mean_f(&self) -> f64 {
        if self.readings.is_empty() {
            return 0.0;
        }
        self.readings.iter().map(|r| r.temp_f).sum::<f64>() / self.readings.len() as f64
    }

    /// Per-year mean °F — what the students plot to "observe a mean
    /// change in the temperature of the Earth over time".
    pub fn yearly_means_f(&self) -> Vec<(u32, f64)> {
        let mut sums: Vec<(u32, f64, u64)> = Vec::new();
        for r in &self.readings {
            match sums.iter_mut().find(|(y, _, _)| *y == r.year) {
                Some((_, sum, n)) => {
                    *sum += r.temp_f;
                    *n += 1;
                }
                None => sums.push((r.year, r.temp_f, 1)),
            }
        }
        sums.sort_by_key(|(y, _, _)| *y);
        sums.into_iter()
            .map(|(y, sum, n)| (y, sum / n as f64))
            .collect()
    }
}

/// °F → °C, the mapper's arithmetic (Fig. 19).
pub fn f_to_c(f: f64) -> f64 {
    5.0 * (f - 32.0) / 9.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NoaaConfig {
        NoaaConfig {
            stations: 5,
            years: 10,
            readings_per_year: 12,
            ..NoaaConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.readings, b.readings);
        assert_eq!(a.stations, b.stations);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small());
        let b = generate(&NoaaConfig {
            seed: 99,
            ..small()
        });
        assert_ne!(a.readings, b.readings);
    }

    #[test]
    fn row_count_matches_config() {
        let d = generate(&small());
        assert_eq!(d.readings.len(), 5 * 10 * 12);
        assert_eq!(d.stations.len(), 5);
    }

    #[test]
    fn temperatures_are_plausible_for_the_us() {
        let d = generate(&small());
        let mean = d.mean_f();
        assert!(
            (20.0..90.0).contains(&mean),
            "annual US mean °F should be temperate, got {mean}"
        );
        for r in &d.readings {
            assert!((-60.0..140.0).contains(&r.temp_f), "outlier: {r:?}");
        }
    }

    #[test]
    fn southern_stations_are_warmer() {
        let d = generate(&generate_cfg_many());
        let south = &d.stations[0];
        let north = d.stations.last().unwrap();
        assert!(south.latitude < north.latitude);
        assert!(south.base_temp_f > north.base_temp_f);
    }

    fn generate_cfg_many() -> NoaaConfig {
        NoaaConfig {
            stations: 20,
            ..small()
        }
    }

    #[test]
    fn warming_trend_is_recoverable() {
        let d = generate(&NoaaConfig {
            stations: 20,
            years: 40,
            readings_per_year: 52,
            warming_f_per_decade: 1.0,
            noise_std_f: 3.0,
            ..NoaaConfig::default()
        });
        let means = d.yearly_means_f();
        let first_decade: f64 = means[..10].iter().map(|(_, m)| m).sum::<f64>() / 10.0;
        let last_decade: f64 = means[means.len() - 10..]
            .iter()
            .map(|(_, m)| m)
            .sum::<f64>()
            / 10.0;
        let observed = last_decade - first_decade;
        // 3 decades apart at 1 °F/decade → ≈ 3 °F.
        assert!(
            (2.0..4.0).contains(&observed),
            "expected ≈3 °F of warming, observed {observed}"
        );
    }

    #[test]
    fn summaries_of_a_hand_made_dataset() {
        let reading = |station: &str, year: u32, temp_f: f64| Reading {
            station: station.into(),
            year,
            day: 1,
            temp_f,
        };
        let dataset = NoaaDataset {
            stations: Vec::new(),
            readings: vec![
                reading("B", 2001, 50.0),
                reading("A", 1999, 40.0),
                reading("A", 2001, 70.0),
                reading("B", 1999, 60.0),
            ],
        };
        assert_eq!(dataset.mean_f(), 55.0);
        // Years come out sorted, whatever order the readings are in.
        assert_eq!(dataset.yearly_means_f(), vec![(1999, 50.0), (2001, 60.0)]);
        assert_eq!(
            dataset.station_temp_pairs(),
            vec![
                ("B".to_string(), 50.0),
                ("A".to_string(), 40.0),
                ("A".to_string(), 70.0),
                ("B".to_string(), 60.0),
            ]
        );
        let empty = NoaaDataset {
            stations: Vec::new(),
            readings: Vec::new(),
        };
        assert_eq!(empty.mean_f(), 0.0);
        assert!(empty.yearly_means_f().is_empty());
    }

    #[test]
    fn f_to_c_fixed_points() {
        assert_eq!(f_to_c(32.0), 0.0);
        assert_eq!(f_to_c(212.0), 100.0);
        assert!((f_to_c(-40.0) + 40.0).abs() < 1e-12);
    }

    #[test]
    fn value_conversion_preserves_length() {
        let d = generate(&small());
        assert_eq!(d.temps_f_values().len(), d.readings.len());
        assert_eq!(d.station_temp_pairs().len(), d.readings.len());
    }
}

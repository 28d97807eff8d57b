//! Global climate modeling with MapReduce (paper §3.4, Fig. 13).
//!
//! "Utilizing weather station data from NOAA, which contain temperatures
//! in Fahrenheit, students can convert the temperatures to Celsius and
//! compute their average … and attempt to observe a mean change in the
//! temperature of the Earth over time." We have no NOAA files, so a
//! deterministic synthetic station dataset stands in (see `snap-data`).
//!
//! ```sh
//! cargo run --release --example climate
//! cargo run --release --example climate -- --trace target/climate_trace.json
//! cargo run --release --example climate -- --serve-metrics
//! ```
//!
//! With `--trace <path>`, span recording is enabled; the run prints its
//! `snap_trace::report()` table and writes a Chrome `trace_event` JSON
//! to `<path>` plus the report JSON to `<path>.report.json`. The °F→°C
//! `parallelMap` phase is all-numeric, so the traced report shows the
//! columnar batch tier engaging (`ring.batch_calls`, `ring.batch_elems`,
//! `par.columnar_chunks`). With `--serve-metrics`, the MapReduce keeps
//! re-running while live `/metrics`, `/report.json`, and `/profile` are
//! served (see `examples/util/cli.rs`).

use std::sync::Arc;

use snap_core::data::{f_to_c, generate_noaa, NoaaConfig};
use snap_core::prelude::*;

#[path = "util/cli.rs"]
mod cli;

/// The Fig. 19 mapper: °F → `["avg", °C]`.
fn climate_mapper() -> Expr {
    ring_reporter_with(
        vec!["t"],
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
    )
}

/// The Fig. 20 reducer: average of the grouped values.
fn averaging_reducer() -> Expr {
    ring_reporter_with(
        vec!["vals"],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    )
}

fn main() {
    let opts = cli::TraceOpts::from_args();
    // A quick classroom-sized run, as blocks (Fig. 13): freezing and
    // boiling average to 50 °C.
    let mut session = Session::load(Project::new("climate").with_sprite(SpriteDef::new("S")));
    let demo = session
        .eval(
            Some("S"),
            &map_reduce(
                climate_mapper(),
                averaging_reducer(),
                number_list([32.0, 212.0]),
            ),
        )
        .expect("blocks evaluate");
    println!("mapReduce over [32 F, 212 F] -> {demo}  (0 C and 100 C average to 50 C)\n");

    // The full synthetic NOAA dataset: 50 stations x 40 years.
    let config = NoaaConfig {
        stations: 50,
        years: 40,
        readings_per_year: 52, // weekly readings keep the example quick
        ..NoaaConfig::default()
    };
    let dataset = generate_noaa(&config);
    println!(
        "synthetic NOAA dataset: {} stations, {} readings ({}–{})",
        dataset.stations.len(),
        dataset.readings.len(),
        config.start_year,
        config.start_year + config.years - 1
    );

    // The °F→°C conversion alone, as a parallelMap: a pure numeric ring
    // over an all-Number list, which the runtime routes through the
    // columnar batch tier (flat f64 chunks, eval_batch lane loops).
    let convert = Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
    ));
    let celsius = snap_core::parallel::parallel_map(convert, dataset.temps_f_values(), 4)
        .expect("climate parallelMap runs");
    let mean_c: f64 = celsius.iter().map(Value::to_number).sum::<f64>() / celsius.len() as f64;
    println!(
        "parallelMap F->C over {} readings: mean {mean_c:.2} C\n",
        celsius.len()
    );

    // Whole-dataset average via the parallel MapReduce block.
    let mapper = Arc::new(Ring::reporter_with_params(
        vec!["t".into()],
        make_list(vec![
            text("avg"),
            div(mul(num(5.0), sub(var("t"), num(32.0))), num(9.0)),
        ]),
    ));
    let reducer = Arc::new(Ring::reporter_with_params(
        vec!["vals".into()],
        div(
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
            length_of(var("vals")),
        ),
    ));
    let out = snap_core::parallel::map_reduce(
        mapper.clone(),
        reducer.clone(),
        dataset.temps_f_values(),
        4,
    )
    .expect("climate MapReduce runs");
    let avg_c = out[0].as_list().unwrap().item(2).unwrap().to_number();
    let expected_c = f_to_c(dataset.mean_f());
    println!("mean temperature: {avg_c:.2} C via mapReduce (reference {expected_c:.2} C)\n");

    // Per-year means: the warming signal the students look for.
    println!("decadal means (C):");
    let yearly = dataset.yearly_means_f();
    for decade in yearly.chunks(10) {
        let first = decade.first().unwrap().0;
        let last = decade.last().unwrap().0;
        let mean_c: f64 = decade.iter().map(|(_, f)| f_to_c(*f)).sum::<f64>() / decade.len() as f64;
        println!("  {first}-{last}: {mean_c:.2} C");
    }
    let first_c = f_to_c(yearly.first().unwrap().1);
    let last_c = f_to_c(yearly.last().unwrap().1);
    println!(
        "\nwarming over {} years: {:+.2} C (configured trend {} F/decade)",
        config.years,
        last_c - first_c,
        config.warming_f_per_decade
    );

    opts.serve_and_rerun(|| {
        let out = snap_core::parallel::map_reduce(
            mapper.clone(),
            reducer.clone(),
            dataset.temps_f_values(),
            4,
        )
        .expect("climate MapReduce runs");
        assert_eq!(out.len(), 1);
    });
    opts.finish();
}

//! A ring shipped to the backend compiles once per block evaluation: the
//! VM's purity test compiles through the cache, so the backend's own
//! lookup of the same ring hits it.
//!
//! The counters are process-wide, so this file holds one test.

use snap_ast::builder::*;
use snap_ast::{Project, SpriteDef, Value};
use snap_trace::well_known::{COMPILE_CACHE_HITS, RING_BYTECODE_COMPILES};
use snap_vm::Vm;

#[test]
fn a_parallel_map_compiles_its_ring_once() {
    let mut vm = Vm::new(Project::new("t").with_sprite(SpriteDef::new("S")));
    let block = parallel_map_over(
        ring_reporter(mul(empty_slot(), num(10.0))),
        number_list([3.0, 7.0, 8.0]),
    );
    let compiles = RING_BYTECODE_COMPILES.get();
    let hits = COMPILE_CACHE_HITS.get();
    assert_eq!(
        vm.eval_expr(Some("S"), &block),
        Ok(Value::number_list([30.0, 70.0, 80.0]))
    );
    assert_eq!(RING_BYTECODE_COMPILES.get() - compiles, 1);
    assert!(COMPILE_CACHE_HITS.get() - hits >= 1);
}

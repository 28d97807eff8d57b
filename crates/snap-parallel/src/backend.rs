//! The worker-pool backend for the VM.
//!
//! Installing a [`WorkerBackend`] on a [`snap_vm::Vm`] switches its
//! `parallelMap`/`mapReduce` blocks from the sequential fallback to true
//! parallelism — the moment the paper's extended Snap! gains Web Workers.
//! The VM's by-handle calls read the list in place under its read lock
//! (see the `blocks` module); the `Vec` methods build a list and run the
//! same block code.

use std::sync::Arc;

use snap_ast::{EvalError, List, Ring, Value};
use snap_vm::{ParallelBackend, Vm};

use crate::blocks;

/// [`ParallelBackend`] implementation on OS-thread workers: every call
/// runs on the shared pool, with structured-clone isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerBackend;

impl ParallelBackend for WorkerBackend {
    fn parallel_map(
        &self,
        ring: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        // Route through the block layer so the backend inherits its
        // degrade-to-sequential fault handling — a VM script never sees
        // a worker panic, only a slower answer.
        blocks::parallel_map(ring, items, workers)
    }

    fn map_reduce(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        items: Vec<Value>,
        workers: usize,
    ) -> Result<Vec<Value>, EvalError> {
        blocks::map_reduce(mapper, reducer, items, workers)
    }

    fn name(&self) -> &'static str {
        "worker-pool"
    }

    fn parallel_map_list(
        &self,
        ring: Arc<Ring>,
        list: &List,
        workers: usize,
    ) -> Result<Value, EvalError> {
        blocks::parallel_map_list(ring, list, workers).map(Value::List)
    }

    fn map_reduce_list(
        &self,
        mapper: Arc<Ring>,
        reducer: Arc<Ring>,
        list: &List,
        workers: usize,
    ) -> Result<Value, EvalError> {
        blocks::map_reduce_list(mapper, reducer, list, workers).map(Value::List)
    }
}

/// Install the true-parallel backend on a VM (in place).
pub fn install(vm: &mut Vm) {
    vm.world.set_backend(Arc::new(WorkerBackend));
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_ast::builder::*;
    use snap_ast::{Project, Script, SpriteDef};

    #[test]
    fn installed_backend_reports_worker_pool() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S"));
        let mut vm = Vm::new(project);
        assert_eq!(vm.world.backend.name(), "sequential");
        install(&mut vm);
        assert_eq!(vm.world.backend.name(), "worker-pool");
    }

    #[test]
    fn vm_parallel_map_runs_on_workers_with_same_results() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![say(parallel_map_with_workers(
                ring_reporter(mul(empty_slot(), num(10.0))),
                number_list([3.0, 7.0, 8.0]),
                num(4.0),
            ))]),
        ));
        let mut vm = Vm::new(project);
        install(&mut vm);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["[30, 70, 80]"]);
        assert!(vm.world.errors.is_empty());
    }

    #[test]
    fn vm_map_reduce_runs_on_workers() {
        let project = Project::new("t").with_sprite(SpriteDef::new("S").with_script(
            Script::on_green_flag(vec![say(map_reduce(
                ring_reporter_with(vec!["w"], make_list(vec![var("w"), num(1.0)])),
                ring_reporter_with(
                    vec!["vals"],
                    combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
                ),
                split(text("b a b"), text(" ")),
            ))]),
        ));
        let mut vm = Vm::new(project);
        install(&mut vm);
        vm.green_flag();
        vm.run_until_idle();
        assert_eq!(vm.world.said(), vec!["[[a, 1], [b, 2]]"]);
    }

    #[test]
    fn worker_backend_keeps_a_numeric_list_numeric() {
        let ring = Arc::new(Ring::reporter(mul(empty_slot(), num(10.0))));
        let list = List::from_numbers((0..64).map(f64::from).collect());
        let backend = WorkerBackend;
        let out = backend.parallel_map_list(ring.clone(), &list, 2).unwrap();
        assert!(out.as_list().unwrap().is_numeric());
        let by_vec = backend.parallel_map(ring, list.to_vec(), 2).unwrap();
        assert_eq!(out, Value::list(by_vec));
    }

    #[test]
    fn worker_and_sequential_list_methods_agree() {
        use snap_vm::SequentialBackend;
        let mapper = Arc::new(Ring::reporter_with_params(
            vec!["x".into()],
            make_list(vec![
                floor(div(var("x"), num(10.0))),
                mul(var("x"), var("x")),
            ]),
        ));
        let reducer = Arc::new(Ring::reporter_with_params(
            vec!["vals".into()],
            combine_using(var("vals"), ring_reporter(add(empty_slot(), empty_slot()))),
        ));
        let numbers: Vec<f64> = (0..50).map(|n| n as f64 * 0.5).collect();
        for list in [
            List::from_numbers(numbers.clone()),
            List::boxed(numbers.iter().map(|&n| n.into()).collect()),
        ] {
            let par = WorkerBackend
                .map_reduce_list(mapper.clone(), reducer.clone(), &list, 3)
                .unwrap();
            let seq = SequentialBackend
                .map_reduce_list(mapper.clone(), reducer.clone(), &list, 3)
                .unwrap();
            assert_eq!(par, seq);
            assert_eq!(par.as_list().unwrap().len(), 3);
        }
    }

    #[test]
    fn sequential_and_parallel_backends_agree() {
        let expr = parallel_map_over(
            ring_reporter(add(pow(empty_slot(), num(2.0)), num(1.0))),
            numbers_from_to(num(1.0), num(50.0)),
        );
        let project = || Project::new("t").with_sprite(SpriteDef::new("S"));
        let mut seq_vm = Vm::new(project());
        let seq = seq_vm.eval_expr(Some("S"), &expr).unwrap();
        let mut par_vm = Vm::new(project());
        install(&mut par_vm);
        let par = par_vm.eval_expr(Some("S"), &expr).unwrap();
        assert_eq!(seq, par);
    }
}

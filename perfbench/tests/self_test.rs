//! Self-tests of the benchmark: its inputs are a function of the seed,
//! its edits keep line numbers and never revisit a program state, its
//! traced path gives the batch answer, and its self times add up.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ivy_kernelgen::{kernel_source, KernelConfig};
use perfbench::gen::{
    build_kernel, cold_configs, serve_configs, session_config, EditSequence, COLD_SIZES,
    SERVE_KERNELS,
};
use perfbench::replay::Replay;
use perfbench::trace::{Breakdown, Tracer, UNATTRIBUTED};
use perfbench::{batch_answer, check_ground_truth};
use std::collections::BTreeSet;
use std::time::Instant;

fn small_source() -> String {
    build_kernel(&KernelConfig::small()).source
}

#[test]
fn config_draws_are_fixed_by_the_seed_and_differ_between_seeds() {
    assert_eq!(cold_configs(7), cold_configs(7));
    assert_ne!(cold_configs(7), cold_configs(8));
    assert_eq!(serve_configs(7), serve_configs(7));
    assert_ne!(serve_configs(7), serve_configs(8));
    assert_eq!(session_config(7), session_config(7));
    assert_ne!(session_config(7), session_config(8));
}

#[test]
fn cold_batch_spans_small_to_twice_paper() {
    let configs = cold_configs(3);
    assert_eq!(configs.len(), COLD_SIZES.len());
    let sizes: Vec<usize> = configs.iter().map(|c| build_kernel(c).functions).collect();
    assert!((130..=170).contains(&sizes[0]), "smallest: {sizes:?}");
    assert!(
        (290..=330).contains(&sizes[2]),
        "median is paper-sized: {sizes:?}"
    );
    assert!((540..=660).contains(&sizes[4]), "largest: {sizes:?}");
}

#[test]
fn serve_set_is_distinct_and_under_the_context_cap() {
    let sources: BTreeSet<String> = serve_configs(5).iter().map(kernel_source).collect();
    assert_eq!(sources.len(), SERVE_KERNELS);
    const { assert!(SERVE_KERNELS < 16) };
}

#[test]
fn edits_are_seeded_line_preserving_and_never_revisit_a_state() {
    let source = small_source();
    let mut a = EditSequence::new(&source, 11);
    let mut b = EditSequence::new(&source, 11);
    let mut other = EditSequence::new(&source, 12);
    let mut seen = BTreeSet::from([source.clone()]);
    let mut previous = source.clone();
    let mut differs_from_other_seed = false;
    for _ in 0..60 {
        let (func, edited) = a.next_edit();
        assert_eq!((func.clone(), edited.clone()), b.next_edit());
        differs_from_other_seed |= other.next_edit().1 != edited;
        let before: Vec<&str> = previous.lines().collect();
        let after: Vec<&str> = edited.lines().collect();
        assert_eq!(before.len(), after.len(), "edit of {func} moved lines");
        let changed = before.iter().zip(&after).filter(|(x, y)| x != y).count();
        assert_eq!(changed, 1, "edit of {func} changed {changed} lines");
        assert!(
            ivy_cmir::parser::parse_program(&edited).is_ok(),
            "edit of {func} does not parse"
        );
        assert!(
            seen.insert(edited.clone()),
            "edit of {func} revisits a state"
        );
        previous = edited;
    }
    assert!(differs_from_other_seed);
}

#[test]
fn traced_replay_gives_the_batch_answer_and_it_covers_the_ground_truth() {
    let kernel = build_kernel(&KernelConfig::small());
    let batch = batch_answer(&kernel.source).expect("kernel analyzes");
    check_ground_truth(&batch, &kernel.ground_truth).expect("batch covers ground truth");

    let program = ivy_cmir::parser::parse_program(&kernel.source).expect("kernel parses");
    let replay = Replay::new(ivy_daemon::fleet_engine(0, None));
    let mut tracer = Tracer::new(Instant::now(), 0);
    let ((_, _, traced), _) = tracer.op(|t| replay.analyze(t, &program));
    assert_eq!(traced, batch);

    // A report missing the seeded blocking bug's error is rejected.
    let without_blockstop: Vec<String> = batch
        .split("\n  },")
        .filter(|item| !item.contains("\"blockstop\""))
        .map(String::from)
        .collect();
    let stripped = without_blockstop.join("\n  },");
    assert!(check_ground_truth(&stripped, &kernel.ground_truth).is_err());
}

#[test]
fn self_times_sum_to_the_operation_time() {
    let spin = |n: u64| (0..n).fold(0u64, |a, x| a.wrapping_mul(31).wrapping_add(x));
    let mut tracer = Tracer::new(Instant::now(), 0);
    for _ in 0..3 {
        tracer.op(|t| {
            std::hint::black_box(t.span("a", || spin(200_000)));
            std::hint::black_box(spin(50_000));
            std::hint::black_box(t.span("b", || spin(100_000)));
            t.count("bytes", 10.0);
        });
    }
    let mut b = Breakdown::default();
    b.add(&tracer);
    assert_eq!(b.ops, 3);
    let total: f64 = b.self_ms.values().sum::<f64>() / 3.0;
    assert!(
        (total - b.op_ms_mean()).abs() < 1e-9,
        "{total} vs {}",
        b.op_ms_mean()
    );
    assert!(b.self_ms_per_op("a") > 0.0 && b.self_ms_per_op(UNATTRIBUTED) > 0.0);
    assert_eq!(b.count_per_op("bytes"), 10.0);
    assert_eq!(b.self_ms_per_op("missing"), 0.0);
}

//! Seeded input generators. Every workload input is a function of the
//! `--seed` argument alone: the same seed yields byte-identical KC sources
//! and edit sequences, and the programs under test only ever receive the
//! generated source text.

use ivy_cmir::ast::{Expr, Program};
use ivy_cmir::parser::parse_program;
use ivy_cmir::pretty::pretty_program;
use ivy_cmir::visit::{map_block_exprs, walk_block_exprs};
use ivy_kernelgen::{GroundTruth, KernelBuild, KernelConfig};
use std::collections::BTreeSet;

/// SplitMix64: a tiny, fully specified generator, so the inputs depend on
/// nothing but the seed (not on a library's stream definition).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream; `stream` separates the draws of
    /// different generators that share a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Generator stream tags, one per generator.
const COLD_STREAM: u64 = 1;
const SESSION_STREAM: u64 = 2;
const EDIT_STREAM: u64 = 3;
const SERVE_STREAM: u64 = 4;

/// Relative sizes of the `cold_batch` kernels (see [`sized_config`]):
/// small, two steps up to paper, then halfway to and at twice paper. With
/// equal shares the median falls in the middle of the paper kernel's
/// samples and p90 in the middle of the largest kernel's, never on a
/// boundary between two kernels.
pub const COLD_SIZES: [f64; 5] = [0.0, 0.18, 0.36, 0.68, 1.0];

/// Number of distinct kernels a `warm_serve` daemon is primed with (well
/// under the 16-context store cap).
pub const SERVE_KERNELS: usize = 4;

/// A kernel configuration at relative size `t`: 0 is
/// [`KernelConfig::small`] (146 functions), 1 is about twice
/// [`KernelConfig::paper`] (~600 functions). Each knob is jittered
/// independently, so kernels of one size differ in composition.
fn sized_config(t: f64, jitter: f64, rng: &mut Rng) -> KernelConfig {
    let mut knob = |lo: f64, hi: f64| {
        let t = (t + (rng.unit() - 0.5) * jitter).clamp(0.0, 1.0);
        (lo + (hi - lo) * t).round() as usize
    };
    KernelConfig {
        drivers: knob(2.0, 10.0),
        fp_groups: knob(3.0, 37.0),
        cache_defects: knob(4.0, 68.0),
        ring_defects: knob(3.0, 65.0),
        seed: rng.next_u64() % 1_000_000,
        ..KernelConfig::small()
    }
}

/// The `cold_batch` draw: one kernel per size in [`COLD_SIZES`], spanning
/// small to about twice paper. Stratifying keeps the size mix, and so the
/// latency distribution, the same from seed to seed while the kernels
/// differ.
pub fn cold_configs(seed: u64) -> Vec<KernelConfig> {
    let mut rng = Rng::new(seed, COLD_STREAM);
    COLD_SIZES
        .iter()
        .map(|&t| sized_config(t, 0.04, &mut rng))
        .collect()
}

/// A paper-sized kernel with seeded composition.
fn paper_like(rng: &mut Rng) -> KernelConfig {
    let paper = KernelConfig::paper();
    let mut wiggle = |n: usize| n + rng.below(5) - 2;
    KernelConfig {
        fp_groups: wiggle(paper.fp_groups),
        cache_defects: wiggle(paper.cache_defects),
        ring_defects: wiggle(paper.ring_defects),
        seed: rng.next_u64() % 1_000_000,
        ..paper
    }
}

/// The `edit_session` starting kernel: paper-sized, seeded composition.
pub fn session_config(seed: u64) -> KernelConfig {
    paper_like(&mut Rng::new(seed, SESSION_STREAM))
}

/// The `warm_serve` set: [`SERVE_KERNELS`] distinct paper-sized kernels.
pub fn serve_configs(seed: u64) -> Vec<KernelConfig> {
    let mut rng = Rng::new(seed, SERVE_STREAM);
    (0..SERVE_KERNELS).map(|_| paper_like(&mut rng)).collect()
}

/// One generated kernel as the programs under test see it.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The pretty-printed KC source: the only thing the programs receive.
    pub source: String,
    /// The seeded defects, for the independent correctness check.
    pub ground_truth: GroundTruth,
    /// Number of functions.
    pub functions: usize,
}

/// Generates and pretty-prints a kernel.
pub fn build_kernel(config: &KernelConfig) -> Kernel {
    let build = KernelBuild::generate(config);
    Kernel {
        source: build.source(),
        functions: build.program.functions.len(),
        ground_truth: build.ground_truth,
    }
}

fn int_literals(program: &Program, func: usize) -> usize {
    let mut n = 0;
    if let Some(body) = &program.functions[func].body {
        walk_block_exprs(body, &mut |e| {
            if matches!(e, Expr::Int(_)) {
                n += 1;
            }
        });
    }
    n
}

/// The `edit_session` edit stream over one kernel. Each edit sets one
/// integer literal, in a uniformly chosen function body, to a value no
/// earlier program state holds, so no state is ever revisited. Only the
/// literal's digits change, so every line keeps its number.
pub struct EditSequence {
    program: Program,
    /// Functions with at least one integer literal in their body.
    candidates: Vec<usize>,
    /// Literal values of the starting program, which edits never write.
    original: BTreeSet<i64>,
    next_value: i64,
    rng: Rng,
}

impl EditSequence {
    /// Starts from the parse of a kernel's pretty-printed source.
    pub fn new(source: &str, seed: u64) -> EditSequence {
        let program = parse_program(source).expect("generated kernel parses");
        let candidates = (0..program.functions.len())
            .filter(|&f| int_literals(&program, f) > 0)
            .collect();
        let mut original = BTreeSet::new();
        for f in &program.functions {
            if let Some(body) = &f.body {
                walk_block_exprs(body, &mut |e| {
                    if let Expr::Int(v) = e {
                        original.insert(*v);
                    }
                });
            }
        }
        EditSequence {
            program,
            candidates,
            original,
            next_value: 1000,
            rng: Rng::new(seed, EDIT_STREAM),
        }
    }

    /// Applies the next edit; returns the edited function's name and the
    /// edited program's source.
    pub fn next_edit(&mut self) -> (String, String) {
        let func = self.candidates[self.rng.below(self.candidates.len())];
        let target = self.rng.below(int_literals(&self.program, func));
        while self.original.contains(&self.next_value) {
            self.next_value += 1;
        }
        let value = self.next_value;
        self.next_value += 1;
        let f = &mut self.program.functions[func];
        let body = f.body.as_ref().expect("candidate has a body");
        let mut seen = 0;
        f.body = Some(map_block_exprs(body, &mut |e| match e {
            Expr::Int(_) => {
                seen += 1;
                if seen - 1 == target {
                    Expr::Int(value)
                } else {
                    e
                }
            }
            other => other,
        }));
        (f.name.clone(), pretty_program(&self.program))
    }
}

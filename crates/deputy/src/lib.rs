//! `ivy-deputy` — the Deputy dependent type system for KC (§2.1 of the paper).
//!
//! Deputy "checks that a pointer always points to valid data of the correct
//! type, even in the presence of pointer arithmetic", using lightweight,
//! untrusted annotations (`count`, `bound`, `nullterm`, `nonnull`, `opt`,
//! union `when` tags, `trusted`) plus hybrid static/run-time checking.
//!
//! The crate provides the whole conversion pipeline:
//!
//! * [`annotate`] — annotation validation and default inference for legacy
//!   pointers (the incremental-conversion story), applied to a body-free
//!   environment; the check walk gives each function's locals their
//!   defaults as it binds them.
//! * [`instrument`] — the checker itself: static discharge where provable,
//!   run-time check insertion otherwise, `trusted` escape hatches respected
//!   and counted. One walk per function, which either only fills the
//!   function's report or also builds the instrumented body.
//! * [`optimize`] — redundant-check elimination.
//! * [`erase`](erase()) — erasure semantics: strip every annotation and every
//!   inserted check, recovering a program a traditional build would accept.
//! * [`stats`] — the annotation-burden numbers of experiment E2.
//!
//! # Examples
//!
//! ```
//! use ivy_cmir::parser::parse_program;
//! use ivy_deputy::{Deputy, stats};
//!
//! let program = parse_program(
//!     r#"
//!     fn checksum_pairs(buf: u8 * count(n), n: u32) -> u32 {
//!         let acc: u32 = 0;
//!         let i: u32 = 0;
//!         while (i < n) {
//!             // buf[i] is guarded by the loop condition (static discharge);
//!             // buf[i + 1] is not, so Deputy inserts a run-time check.
//!             acc = acc + buf[i] + buf[i + 1];
//!             i = i + 2;
//!         }
//!         return acc;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let conversion = Deputy::new().convert(&program);
//! assert!(conversion.report.accepted());
//! assert!(conversion.report.total_runtime_checks() > 0);
//! let burden = stats::burden(&program);
//! assert!(burden.annotated_lines > 0);
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod instrument;
pub mod optimize;
pub mod plugin;
pub mod report;
pub mod stats;

pub use instrument::{convert_function, Conversion, Deputy};
pub use plugin::{DeputyChecker, DeputyConfig};
pub use report::{BurdenStats, ConversionReport, DeputyDiagnostic, Severity, SiteOutcome};

use ivy_cmir::ast::Program;

/// Fully erases a program: every Deputy annotation, every inserted run-time
/// check, and every delayed-free scope marker is removed, yielding the
/// program a traditional build process would compile ("erasure semantics").
pub fn erase(program: &Program) -> Program {
    program.erased()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;
    use ivy_cmir::visit;
    use ivy_cmir::Stmt;

    #[test]
    fn erase_after_convert_recovers_plain_program() {
        let src = r#"
            fn get(buf: u8 * count(n), n: u32, i: u32) -> u8 { return buf[i]; }
        "#;
        let p = parse_program(src).unwrap();
        let converted = Deputy::new().convert(&p);
        let erased = erase(&converted.program);
        // No checks and no annotations survive erasure.
        let f = erased.function("get").unwrap();
        assert!(!f.is_annotated());
        let mut has_check = false;
        visit::walk_fn_stmts(f, &mut |s| {
            if matches!(s, Stmt::Check(..)) {
                has_check = true;
            }
        });
        assert!(!has_check);
    }

    #[test]
    fn conversion_is_stable_when_repeated() {
        // Re-deputizing an already deputized program must not duplicate
        // checks (the optimizer removes the would-be duplicates).
        let src = r#"
            fn get(buf: u8 * count(n), n: u32, i: u32) -> u8 { return buf[i]; }
        "#;
        let p = parse_program(src).unwrap();
        let once = Deputy::new().convert(&p);
        let twice = Deputy::new().convert(&once.program);
        let count = |prog: &Program| {
            let mut n = 0;
            visit::walk_fn_stmts(prog.function("get").unwrap(), &mut |s| {
                if matches!(s, Stmt::Check(..)) {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(count(&once.program), count(&twice.program));
    }
}

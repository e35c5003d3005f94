//! Source locations and spans for KC programs.
//!
//! Every AST node produced by the parser carries a [`Span`] so that the
//! analysis tools (Deputy, CCount, BlockStop) can report findings against a
//! file / line position, and so that the annotation-burden experiment (E2)
//! can count annotated lines the way the paper does.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A position in a source file (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Pos {
    /// Creates a new position.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }

    /// The synthetic position used for programmatically built nodes.
    pub fn synthetic() -> Self {
        Pos { line: 0, col: 0 }
    }
}

impl Default for Pos {
    fn default() -> Self {
        Pos::synthetic()
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A half-open region of a source file.
///
/// Spans are carried for diagnostics only; they never affect program
/// semantics, and two nodes that differ only in spans compare equal for the
/// purposes of the structural-equality helpers in [`crate::ast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Span {
    /// Start position (inclusive).
    pub start: Pos,
    /// End position (exclusive).
    pub end: Pos,
}

impl Span {
    /// Creates a span from two positions.
    pub fn new(start: Pos, end: Pos) -> Self {
        Span { start, end }
    }

    /// A span for nodes constructed by the builder API rather than the parser.
    pub fn synthetic() -> Self {
        Span::default()
    }

    /// Returns true if this span was produced by the parser (has a real line).
    pub fn is_real(&self) -> bool {
        self.start.line != 0
    }

    /// Produces the smallest span covering both `self` and `other`.
    pub fn merge(&self, other: Span) -> Span {
        if !self.is_real() {
            return other;
        }
        if !other.is_real() {
            return *self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// This span moved down by `lines`, wrapping: a shift by `n` and then
    /// by `n.wrapping_neg()` restores every span, synthetic ones included.
    /// Per-function facts store spans shifted by the negated start line of
    /// their function, so they survive edits that move the function.
    pub fn shift_lines(mut self, lines: u32) -> Span {
        self.start.line = self.start.line.wrapping_add(lines);
        self.end.line = self.end.line.wrapping_add(lines);
        self
    }

    /// Number of source lines covered by this span (at least 1 for real spans).
    pub fn line_count(&self) -> u32 {
        if !self.is_real() {
            return 0;
        }
        self.end.line.saturating_sub(self.start.line) + 1
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_real() {
            write!(f, "{}-{}", self.start, self.end)
        } else {
            write!(f, "<builtin>")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_real_spans() {
        let a = Span::new(Pos::new(3, 1), Pos::new(3, 10));
        let s = Span::synthetic().merge(a);
        assert_eq!(s, a);
        let s2 = a.merge(Span::synthetic());
        assert_eq!(s2, a);
    }

    #[test]
    fn merge_covers_both() {
        let a = Span::new(Pos::new(3, 5), Pos::new(3, 10));
        let b = Span::new(Pos::new(5, 1), Pos::new(6, 2));
        let m = a.merge(b);
        assert_eq!(m.start, Pos::new(3, 5));
        assert_eq!(m.end, Pos::new(6, 2));
    }

    #[test]
    fn line_count_is_inclusive() {
        let a = Span::new(Pos::new(3, 1), Pos::new(5, 2));
        assert_eq!(a.line_count(), 3);
        assert_eq!(Span::synthetic().line_count(), 0);
    }

    #[test]
    fn display_formats() {
        let a = Span::new(Pos::new(3, 1), Pos::new(5, 2));
        assert_eq!(format!("{a}"), "3:1-5:2");
        assert_eq!(format!("{}", Span::synthetic()), "<builtin>");
    }
}

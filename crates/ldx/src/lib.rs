//! `linx-ldx` — the LDX exploration-specification language (paper §4).
//!
//! LDX is the intermediate language LINX uses to describe the *space* of exploration
//! sessions that are relevant to an analytical goal. It extends Tregex-style tree
//! patterns with:
//!
//! * **structure primitives** — `CHILDREN {A, B, +}` and `DESCENDANTS {A}` constrain the
//!   shape of the session tree (which query consumes whose result, and in what order),
//! * **operation patterns** — `A LIKE [F, country, eq, .*]` partially specify the
//!   parameters of a query operation with a small pattern language (`.*` wildcards and
//!   `a|b` alternations), and
//! * **continuity variables** — `(?<X>.*)` named-group captures that bind a free
//!   parameter in one operation and constrain it to be *the same* in another
//!   (`B1 LIKE [F,country,eq,(?<X>.*)]` / `B2 LIKE [F,country,neq,(?<X>.*)]`).
//!
//! The crate provides:
//!
//! * [`ast`] — the LDX abstract syntax ([`Ldx`], [`NodeSpec`], [`OpPattern`]),
//! * [`parser`] — a parser for the textual syntax used throughout the paper,
//! * [`pattern`] — the token-pattern matcher with continuity capture,
//! * [`verify`] — the verification engine (paper Algorithm 1) deciding whether an
//!   exploration tree complies with a specification, plus structural-only matching and
//!   per-parameter satisfaction counting used by the CDRL compliance reward,
//! * [`partial`] — the ongoing-session ("immediate reward") check that asks whether a
//!   prefix of a session can still be completed into a structurally compliant tree
//!   within the remaining step budget (paper Appendix A.3), memoized per session
//!   shape by [`partial::StructuralOracle`], and
//! * [`builder`] — a programmatic construction API used by the benchmark generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod parser;
pub mod partial;
pub mod pattern;
pub mod verify;

pub use ast::{ChildrenSpec, Ldx, NodeSpec, OpPattern};
pub use builder::LdxBuilder;
pub use parser::{parse_ldx, LdxParseError};
pub use pattern::TokenPattern;
pub use verify::{Assignment, VerifyEngine};

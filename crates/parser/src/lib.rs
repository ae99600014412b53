//! # wdl-parser — surface syntax for WebdamLog
//!
//! Parses the textual rule/fact syntax the paper uses (and the demo GUI of
//! Figure 3 exposes for inspection and customization):
//!
//! ```text
//! // a fact
//! pictures@sigmod(32, "sea.jpg", "Emilien", 0x64af);
//!
//! // the paper's delegation rule
//! attendeePictures@Jules($id, $name, $owner, $data) :-
//!     selectedAttendee@Jules($attendee),
//!     pictures@$attendee($id, $name, $owner, $data);
//!
//! // customization: only pictures rated 5
//! attendeePictures@Jules($id, $name, $owner, $data) :-
//!     selectedAttendee@Jules($attendee),
//!     pictures@$attendee($id, $name, $owner, $data),
//!     rate@$owner($id, $r), $r == 5;
//!
//! // declarations (shape of a peer's relations)
//! extensional pictures@Jules/4;
//! intensional attendeePictures@Jules/4;
//! ```
//!
//! Variables start with `$` (paper §2). `not` introduces negation, `:=`
//! binds an arithmetic/string expression, comparisons use `== != < <= > >=`,
//! strings are double-quoted with the usual escapes, byte blobs are `0x...`
//! hex literals. Comments run `//` or `#` to end of line. Statements end
//! with `;`.
//!
//! [`pretty`] renders facts/rules back to this syntax; `parse(pretty(x)) ==
//! x` round-trips (property-tested in `tests/`).
//!
//! ```
//! let rule = wdl_parser::parse_rule(
//!     "attendeePictures@Jules($id) :- selectedAttendee@Jules($a), pictures@$a($id);",
//! ).unwrap();
//! assert_eq!(rule.body.len(), 2);
//! let text = wdl_parser::pretty::rule(&rule);
//! assert_eq!(wdl_parser::parse_rule(&text).unwrap(), rule);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod lexer;
mod load;
mod parse;
pub mod pretty;

pub use lexer::{Token, TokenKind};
pub use load::{load_program_checked, LoadError};
pub use parse::{
    parse_fact, parse_program, parse_program_spanned, parse_rule, parse_statement, ParseError,
    SpannedStatement, Statement,
};

/// Parses a query: a bare rule body (comma-separated items, optional final
/// `;`), as typed into the demo's Query tab. Run it with
/// [`wdl_core::Peer::query`].
pub fn parse_query(src: &str) -> Result<Vec<wdl_core::WBodyItem>, ParseError> {
    // Reuse the rule machinery with a synthetic head.
    let src = src.trim().trim_end_matches(';');
    let rule = parse_rule(&format!("q@q() :- {src};"))?;
    Ok(rule.body)
}

//! The compiled program's assembly listing, rendered on first read.
//!
//! `compile` keeps the linked [`Assembly`] items and every label's
//! spelling; the text is rendered from them the first time it is read.
//! Encoding never needs it, and most compiles are never listed.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use swsec_asm::{Assembly, Label};

/// A range of the [`Names`] string pool.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Span {
    start: u32,
    len: u32,
}

/// How a label is spelled in the listing.
#[derive(Debug, Clone, Copy)]
pub(super) enum LabelName {
    /// A function or runtime symbol, verbatim.
    Symbol(Span),
    /// A function's shared return path: `.L{fn}_epilogue`.
    Epilogue(Span),
    /// A compiler-made local label: `.L{fn}_{hint}_{n}`.
    Local {
        func: Span,
        hint: &'static str,
        n: u32,
    },
}

/// The spelling of every label, by id, over one pool of the function
/// and symbol names they contain.
#[derive(Debug, Default)]
pub(super) struct Names {
    pool: String,
    labels: Vec<LabelName>,
}

impl Names {
    /// Copies `name` into the pool.
    pub(super) fn intern(&mut self, name: &str) -> Span {
        let start = self.pool.len() as u32;
        self.pool.push_str(name);
        Span {
            start,
            len: name.len() as u32,
        }
    }

    /// Spells the next label id.
    pub(super) fn push(&mut self, name: LabelName) {
        self.labels.push(name);
    }

    fn str(&self, span: Span) -> &str {
        &self.pool[span.start as usize..(span.start + span.len) as usize]
    }

    /// Appends the spelling of `label` to `out`.
    pub(super) fn write(&self, label: Label, out: &mut String) {
        match self.labels[label.0 as usize] {
            LabelName::Symbol(name) => out.push_str(self.str(name)),
            LabelName::Epilogue(func) => {
                out.push_str(".L");
                out.push_str(self.str(func));
                out.push_str("_epilogue");
            }
            LabelName::Local { func, hint, n } => {
                use fmt::Write;
                let func = self.str(func);
                write!(out, ".L{func}_{hint}_{n}").expect("writing to a String");
            }
        }
    }
}

/// The generated assembly listing: one line per item, item i on line
/// i + 1 (the line link errors name). Reads as a `str`; the text is
/// rendered once, on first read, and clones share it.
#[derive(Clone)]
pub struct Listing(Arc<Parts>);

struct Parts {
    asm: Assembly,
    names: Names,
    text: OnceLock<String>,
}

impl Listing {
    /// The listing of `asm`, with labels spelled by `names`; nothing is
    /// rendered yet.
    pub(super) fn new(mut asm: Assembly, mut names: Names) -> Listing {
        // Kept for the program's lifetime: hold no growth slack.
        asm.shrink_to_fit();
        names.labels.shrink_to_fit();
        names.pool.shrink_to_fit();
        Listing(Arc::new(Parts {
            asm,
            names,
            text: OnceLock::new(),
        }))
    }

    /// Whether the text has been rendered.
    #[cfg(test)]
    fn is_rendered(&self) -> bool {
        self.0.text.get().is_some()
    }
}

impl Deref for Listing {
    type Target = str;

    fn deref(&self) -> &str {
        let Parts { asm, names, text } = &*self.0;
        text.get_or_init(|| {
            let mut out = String::with_capacity(24 * asm.len());
            asm.render(&mut out, |out, label| names.write(label, out));
            out
        })
    }
}

impl fmt::Display for Listing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Listing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{compile, CompileOptions, CompiledProgram, HardenOptions};
    use crate::parser::parse;

    const SRC: &str = "int twice(int v) { return v + v; }\n\
                       int main() { int a[4]; for (int i = 0; i < 4; i++) a[i] = twice(i);\n\
                       if (a[3] > 4) { return a[1]; } return 0; }";

    fn compiled(harden: HardenOptions) -> CompiledProgram {
        let opts = CompileOptions {
            harden,
            ..CompileOptions::default()
        };
        compile(&parse(SRC).unwrap(), &opts).unwrap()
    }

    #[test]
    fn compile_renders_nothing_until_the_listing_is_read() {
        let program = compiled(HardenOptions::none());
        assert!(!program.listing.is_rendered());
        assert!(program.listing.contains("twice:\n"));
        assert!(program.listing.is_rendered());
    }

    #[test]
    fn a_clone_taken_before_the_first_read_shares_the_rendering() {
        let program = compiled(HardenOptions::none());
        let copy = program.clone();
        assert!(!program.listing.is_rendered());
        let text: &str = &copy.listing;
        assert!(program.listing.is_rendered());
        assert!(std::ptr::eq(text, &*program.listing));
    }

    #[test]
    fn hardened_listing_is_what_assembly_render_produces() {
        let program = compiled(HardenOptions {
            stack_canary: true,
            bounds_checks: true,
            strict_reentry: true,
            ..HardenOptions::none()
        });
        let Parts { asm, names, .. } = &*program.listing.0;
        let mut expected = String::new();
        asm.render(&mut expected, |out, label| names.write(label, out));
        assert_eq!(&*program.listing, expected);
        assert_eq!(program.listing.to_string(), expected);
        assert_eq!(format!("{:?}", program.listing), format!("{expected:?}"));
        // Every kind of label spelling occurs.
        for line in [
            "twice:",
            "__reentry:",
            ".Ltwice_epilogue:",
            ".Lmain_canary_ok_",
            ".Lmain_bounds_ok_",
        ] {
            assert!(expected.contains(line), "no `{line}` in\n{expected}");
        }
        assert_eq!(expected.lines().count(), asm.len());
    }
}

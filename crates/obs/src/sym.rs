//! Guest symbolization: label → address-range tables for profiles.
//!
//! The assembler and the MinC code generator both know where every
//! function starts; a [`SymbolTable`] turns those point labels into
//! half-open address ranges (each symbol ends where the next begins,
//! the last at the caller-supplied text end) so a sampled guest PC —
//! or a return address inside a caller — resolves to a function name.
//!
//! The table lives here, at the bottom of the workspace dependency
//! stack, so the VM's profiler can render `.folded` flamegraph lines
//! against it without depending on the assembler or compiler.

/// A sorted label → address-range table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    // (start, end, name), sorted by start, non-overlapping.
    syms: Vec<(u32, u32, String)>,
}

impl SymbolTable {
    /// An empty table: every address resolves to `None` (renderers fall
    /// back to hex).
    #[must_use]
    pub fn empty() -> SymbolTable {
        SymbolTable::default()
    }

    /// Builds a table from point labels. Each label's range runs to the
    /// next label's address (ties keep the first name in iteration
    /// order), the last to `end`. Labels at or past `end` — e.g. an
    /// `__text_end` marker — produce empty ranges and are dropped.
    #[must_use]
    pub fn from_labels<N: Into<String>>(
        labels: impl IntoIterator<Item = (N, u32)>,
        end: u32,
    ) -> SymbolTable {
        let mut points: Vec<(u32, String)> = labels
            .into_iter()
            .map(|(name, addr)| (addr, name.into()))
            .collect();
        points.sort_by_key(|a| a.0);
        points.dedup_by_key(|p| p.0);
        let mut syms = Vec::with_capacity(points.len());
        for (n, (start, name)) in points.iter().enumerate() {
            let range_end = points.get(n + 1).map_or(end, |next| next.0);
            if *start < range_end {
                syms.push((*start, range_end, name.clone()));
            }
        }
        SymbolTable { syms }
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the table has no symbols.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The name whose range contains `addr`.
    #[must_use]
    pub fn resolve(&self, addr: u32) -> Option<&str> {
        let n = self.syms.partition_point(|(start, _, _)| *start <= addr);
        let (start, end, name) = self.syms.get(n.checked_sub(1)?)?;
        debug_assert!(*start <= addr);
        (addr < *end).then_some(name.as_str())
    }

    /// Renders `addr` as its symbol name, or `0x{addr:x}` when
    /// unresolved — the exact frame spelling `.folded` output uses.
    #[must_use]
    pub fn frame(&self, addr: u32) -> String {
        match self.resolve(addr) {
            Some(name) => name.to_string(),
            None => format!("0x{addr:x}"),
        }
    }

    /// Iterates `(start, end, name)` ranges in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &str)> {
        self.syms.iter().map(|(s, e, n)| (*s, *e, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::from_labels(
            vec![
                ("main", 0x1000u32),
                ("handle", 0x1040),
                ("__text_end", 0x1080),
            ],
            0x1080,
        )
    }

    #[test]
    fn resolves_interior_and_boundary_addresses() {
        let t = table();
        assert_eq!(t.resolve(0x1000), Some("main"));
        assert_eq!(t.resolve(0x103f), Some("main"));
        assert_eq!(t.resolve(0x1040), Some("handle"));
        assert_eq!(t.resolve(0x107f), Some("handle"));
    }

    #[test]
    fn out_of_range_addresses_miss() {
        let t = table();
        assert_eq!(t.resolve(0x0fff), None);
        assert_eq!(t.resolve(0x1080), None);
        assert_eq!(t.resolve(0xffff_ffff), None);
    }

    #[test]
    fn end_markers_are_dropped() {
        // __text_end sits exactly at `end`: zero-length, not a symbol.
        assert_eq!(table().len(), 2);
    }

    #[test]
    fn frame_falls_back_to_hex() {
        let t = table();
        assert_eq!(t.frame(0x1041), "handle");
        assert_eq!(t.frame(0x9000), "0x9000");
        assert_eq!(SymbolTable::empty().frame(0x1000), "0x1000");
    }

    #[test]
    fn unsorted_input_sorts() {
        let t = SymbolTable::from_labels(vec![("b", 0x20u32), ("a", 0x10)], 0x30);
        assert_eq!(t.resolve(0x10), Some("a"));
        assert_eq!(t.resolve(0x2f), Some("b"));
    }
}

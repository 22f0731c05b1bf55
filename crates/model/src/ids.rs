//! Compact interned identifiers for machines and domains.
//!
//! ISP-scale graphs (millions of machines, tens of millions of domains)
//! cannot afford string keys in their hot paths. [`DomainTable`] interns
//! every observed FQD once, assigns it a dense [`DomainId`], and caches its
//! e2LD as a dense [`E2ldId`] so that e2LD-grouped operations (whitelist
//! matching, pruning rule R4, the e2LD activity features) are integer
//! lookups.

use std::collections::HashMap;
use std::fmt;

use crate::domain::DomainName;

/// Identifier of a client machine in the monitored network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Dense identifier of an interned fully-qualified domain name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The raw index into the owning [`DomainTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Dense identifier of an interned effective second-level domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct E2ldId(pub u32);

impl E2ldId {
    /// The raw index into the owning [`DomainTable`]'s e2LD arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for E2ldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Interner mapping [`DomainName`]s to dense [`DomainId`]s (and their e2LDs
/// to dense [`E2ldId`]s).
///
/// # Example
///
/// ```
/// use segugio_model::{DomainName, DomainTable};
///
/// let mut table = DomainTable::new();
/// let d1 = table.intern(&"www.example.com".parse().unwrap());
/// let d2 = table.intern(&"mail.example.com".parse().unwrap());
/// assert_ne!(d1, d2);
/// assert_eq!(table.e2ld_of(d1), table.e2ld_of(d2));
/// assert_eq!(table.name(d1).as_str(), "www.example.com");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainTable {
    names: Vec<DomainName>,
    by_name: HashMap<DomainName, DomainId>,
    e2ld_of: Vec<E2ldId>,
    e2lds: Vec<String>,
    e2ld_by_name: HashMap<String, E2ldId>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Repeated interning of the same name
    /// returns the same id.
    pub fn intern(&mut self, name: &DomainName) -> DomainId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = DomainId(self.names.len() as u32);
        let e2ld_str = name.e2ld().as_str();
        let e2ld_id = match self.e2ld_by_name.get(e2ld_str) {
            Some(&eid) => eid,
            None => {
                let eid = E2ldId(self.e2lds.len() as u32);
                // segugio-lint: allow(H4, once per distinct e2LD)
                self.e2lds.push(e2ld_str.to_owned());
                // segugio-lint: allow(H4, once per distinct e2LD)
                self.e2ld_by_name.insert(e2ld_str.to_owned(), eid);
                eid
            }
        };
        // segugio-lint: allow(H4, once per distinct name)
        self.names.push(name.clone());
        self.e2ld_of.push(e2ld_id);
        // segugio-lint: allow(H4, once per distinct name)
        self.by_name.insert(name.clone(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &DomainName) -> Option<DomainId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a name by string, if it parses and is interned.
    pub fn get_str(&self, name: &str) -> Option<DomainId> {
        let parsed = DomainName::parse(name).ok()?;
        self.get(&parsed)
    }

    /// Looks up an already-canonical spelling (lowercase, no trailing dot)
    /// without parsing or allocating. A miss means the name is new *or*
    /// spelled non-canonically; [`get_str`](Self::get_str) handles both.
    pub fn get_exact(&self, name: &str) -> Option<DomainId> {
        self.by_name.get(name).copied()
    }

    /// The [`DomainName`] for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: DomainId) -> &DomainName {
        &self.names[id.index()]
    }

    /// The e2LD id for a domain id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn e2ld_of(&self, id: DomainId) -> E2ldId {
        self.e2ld_of[id.index()]
    }

    /// The e2LD string for an e2LD id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn e2ld_str(&self, id: E2ldId) -> &str {
        &self.e2lds[id.index()]
    }

    /// Looks up an e2LD id by its exact string.
    pub fn e2ld_id(&self, e2ld: &str) -> Option<E2ldId> {
        self.e2ld_by_name.get(e2ld).copied()
    }

    /// Number of interned FQDs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of distinct e2LDs interned.
    pub fn e2ld_count(&self) -> usize {
        self.e2lds.len()
    }

    /// Iterates over all interned domain ids.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> {
        (0..self.names.len() as u32).map(DomainId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("a.example.com"));
        let b = t.intern(&dn("a.example.com"));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn e2ld_sharing() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("a.example.com"));
        let b = t.intern(&dn("b.example.com"));
        let c = t.intern(&dn("c.other.org"));
        assert_eq!(t.e2ld_of(a), t.e2ld_of(b));
        assert_ne!(t.e2ld_of(a), t.e2ld_of(c));
        assert_eq!(t.e2ld_count(), 2);
        assert_eq!(t.e2ld_str(t.e2ld_of(c)), "other.org");
    }

    #[test]
    fn lookup_by_string() {
        let mut t = DomainTable::new();
        let a = t.intern(&dn("www.example.com"));
        assert_eq!(t.get_str("WWW.EXAMPLE.COM"), Some(a));
        assert_eq!(t.get_str("missing.example.com"), None);
        assert_eq!(t.get_str("not a domain"), None);
        // The exact lookup hits only the canonical spelling.
        assert_eq!(t.get_exact("www.example.com"), Some(a));
        assert_eq!(t.get_exact("WWW.EXAMPLE.COM"), None);
        assert_eq!(t.get_exact("www.example.com."), None);
    }

    #[test]
    fn ids_iterate_densely() {
        let mut t = DomainTable::new();
        t.intern(&dn("a.com"));
        t.intern(&dn("b.com"));
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids, vec![DomainId(0), DomainId(1)]);
    }
}

//! Minimal storage catalog: names → storage roots + opaque metadata.
//!
//! The relational layer keeps typed schemas; the storage catalog only needs
//! to know where an object's pages are and to hold whatever metadata bytes
//! the upper layer wants co-located (the paper's §4 argues models and their
//! metadata belong in the same catalog as tables).

use crate::error::{Error, Result};
use crate::page::PageId;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// What kind of storage object a catalog entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A tuple heap (relational table).
    Table,
    /// A collection of tensor blocks (a tensor relation).
    TensorRelation,
    /// A serialized model artifact.
    Model,
    /// An index structure.
    Index,
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// The object's kind.
    pub kind: ObjectKind,
    /// Pages backing the object (heap pages, blob chains, ...).
    pub pages: Vec<PageId>,
    /// Number of logical entries (tuples, blocks, ...).
    pub cardinality: u64,
    /// Layer-specific metadata (serialized schema, model descriptor, ...).
    pub meta: Vec<u8>,
}

/// A name-keyed catalog of stored objects.
#[derive(Debug, Default)]
pub struct Catalog {
    objects: RwLock<BTreeMap<String, StoredObject>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new object; fails if the name is taken.
    pub fn create(&self, name: &str, object: StoredObject) -> Result<()> {
        let mut objects = self.objects.write();
        if objects.contains_key(name) {
            return Err(Error::ObjectExists(name.to_string()));
        }
        objects.insert(name.to_string(), object);
        Ok(())
    }

    /// Replace an existing object's entry (e.g. after appending pages).
    pub fn update(&self, name: &str, object: StoredObject) -> Result<()> {
        let mut objects = self.objects.write();
        if !objects.contains_key(name) {
            return Err(Error::ObjectNotFound(name.to_string()));
        }
        objects.insert(name.to_string(), object);
        Ok(())
    }

    /// Look up an object by name.
    pub fn get(&self, name: &str) -> Result<StoredObject> {
        self.objects
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::ObjectNotFound(name.to_string()))
    }

    /// Whether `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.objects.read().contains_key(name)
    }

    /// All object names, sorted, optionally filtered by kind.
    pub fn list(&self, kind: Option<ObjectKind>) -> Vec<String> {
        self.objects
            .read()
            .iter()
            .filter(|(_, o)| kind.is_none_or(|k| o.kind == k))
            .map(|(n, _)| n.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(card: u64) -> StoredObject {
        StoredObject {
            kind: ObjectKind::Table,
            pages: vec![PageId(0)],
            cardinality: card,
            meta: b"schema".to_vec(),
        }
    }

    #[test]
    fn create_get_roundtrip() {
        let c = Catalog::new();
        c.create("orders", table(10)).unwrap();
        let o = c.get("orders").unwrap();
        assert_eq!(o.cardinality, 10);
        assert_eq!(o.meta, b"schema");
    }

    #[test]
    fn duplicate_names_rejected() {
        let c = Catalog::new();
        c.create("t", table(1)).unwrap();
        assert!(matches!(
            c.create("t", table(2)),
            Err(Error::ObjectExists(_))
        ));
    }

    #[test]
    fn update_requires_existing() {
        let c = Catalog::new();
        assert!(c.update("ghost", table(1)).is_err());
        c.create("t", table(1)).unwrap();
        c.update("t", table(99)).unwrap();
        assert_eq!(c.get("t").unwrap().cardinality, 99);
    }

    #[test]
    fn list_filters_by_kind() {
        let c = Catalog::new();
        c.create("t1", table(1)).unwrap();
        c.create(
            "m1",
            StoredObject {
                kind: ObjectKind::Model,
                pages: vec![],
                cardinality: 0,
                meta: vec![],
            },
        )
        .unwrap();
        assert_eq!(c.list(Some(ObjectKind::Table)), vec!["t1"]);
        assert_eq!(c.list(Some(ObjectKind::Model)), vec!["m1"]);
        assert_eq!(c.list(None).len(), 2);
    }
}

//! Data handles: opaque identifiers for the pieces of data tasks touch
//! (matrix tiles, panels, vectors). The runtime only needs identity, not the
//! data itself — exactly like StarPU descriptors from the scheduler's point of
//! view.

/// An opaque identifier of a registered piece of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataHandle(pub(crate) usize);

impl DataHandle {
    /// The numeric id (registration order).
    pub fn id(&self) -> usize {
        self.0
    }
}

/// Registry assigning fresh handles and remembering a debug name for each.
#[derive(Debug, Default)]
pub struct HandleRegistry {
    names: Vec<String>,
}

impl HandleRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a named piece of data.
    pub fn register(&mut self, name: impl Into<String>) -> DataHandle {
        let id = self.names.len();
        self.names.push(name.into());
        DataHandle(id)
    }

    /// Number of registered handles.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no handles have been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Debug name of a handle.
    pub fn name(&self, h: DataHandle) -> &str {
        &self.names[h.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_unique_sequential_ids() {
        let mut r = HandleRegistry::new();
        assert!(r.is_empty());
        let a = r.register("a");
        let b = r.register("b");
        assert_ne!(a, b);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "a");
        assert_eq!(r.name(b), "b");
    }

    #[test]
    fn handles_are_usable_as_map_keys() {
        let mut r = HandleRegistry::new();
        let a = r.register("a");
        let b = r.register("b");
        let mut m = std::collections::HashMap::new();
        m.insert(a, 1);
        m.insert(b, 2);
        assert_eq!(m[&a], 1);
        assert_eq!(m[&b], 2);
    }
}

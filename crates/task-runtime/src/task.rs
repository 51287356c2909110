//! Task descriptions: a name and the data handles the task touches (with
//! access modes).

use crate::handle::DataHandle;

/// How a task accesses a data handle. The dependency rules are the usual ones:
/// writes serialize against everything, reads only against writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only access.
    Read,
    /// Write-only access (the previous contents are not needed).
    Write,
    /// Read-modify-write access.
    ReadWrite,
}

impl AccessMode {
    /// `true` if the access writes the data.
    pub fn writes(&self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// `true` if the access reads the data.
    pub fn reads(&self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }
}

/// Description of one task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable kernel name (`potrf`, `trsm`, `qmc`, …).
    pub name: String,
    /// The data accesses of the task, in declaration order.
    pub accesses: Vec<(DataHandle, AccessMode)>,
}

impl TaskSpec {
    /// A new task with no accesses.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            accesses: Vec::new(),
        }
    }

    /// Declare an access (builder style).
    pub fn access(mut self, handle: DataHandle, mode: AccessMode) -> Self {
        self.accesses.push((handle, mode));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::Write.writes() && !AccessMode::Write.reads());
        assert!(!AccessMode::Read.writes() && AccessMode::Read.reads());
        assert!(AccessMode::ReadWrite.writes() && AccessMode::ReadWrite.reads());
    }

    #[test]
    fn builder_collects_accesses() {
        let a = DataHandle(0);
        let b = DataHandle(1);
        let t = TaskSpec::new("gemm")
            .access(a, AccessMode::Read)
            .access(b, AccessMode::ReadWrite);
        assert_eq!(t.name, "gemm");
        assert_eq!(
            t.accesses,
            vec![(a, AccessMode::Read), (b, AccessMode::ReadWrite)]
        );
    }
}

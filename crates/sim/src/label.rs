//! Names of processes and resources, rendered only when read.
//!
//! A simulation names every process and resource, but reads a name only
//! in a [`crate::DeadlockError`], a panic message or a
//! [`crate::Simulation::stats`] key. A [`Label`] therefore keeps a base
//! and up to two indices, and writes them out only when displayed: a
//! launcher that names its ranks `rank0`, `rank1`, … formats nothing on
//! a run that succeeds.

use std::borrow::Cow;
use std::fmt;

/// A process or resource name: a base followed by up to two indices,
/// the second after a `:`. `Label::indexed("rank", 3)` reads `rank3`,
/// `Label::indexed_pair("cpu:", 0, 1)` reads `cpu:0:1`, and a plain
/// `&'static str` or `String` converts into a label that reads as
/// itself. Two labels that read alike name the same key in
/// [`crate::SimStats::resources`], so the resources of one simulation
/// need labels that read differently.
#[derive(Clone, Debug)]
pub struct Label {
    base: Cow<'static, str>,
    indices: [Option<usize>; 2],
}

impl Label {
    /// `base` followed by `index`.
    pub fn indexed(base: impl Into<Cow<'static, str>>, index: usize) -> Label {
        Label {
            base: base.into(),
            indices: [Some(index), None],
        }
    }

    /// `base` followed by `first`, a `:` and `second`.
    pub fn indexed_pair(base: impl Into<Cow<'static, str>>, first: usize, second: usize) -> Label {
        Label {
            base: base.into(),
            indices: [Some(first), Some(second)],
        }
    }
}

impl From<&'static str> for Label {
    fn from(base: &'static str) -> Label {
        Label {
            base: Cow::Borrowed(base),
            indices: [None; 2],
        }
    }
}

impl From<String> for Label {
    fn from(base: String) -> Label {
        Label {
            base: Cow::Owned(base),
            indices: [None; 2],
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.base)?;
        if let Some(first) = self.indices[0] {
            write!(f, "{first}")?;
        }
        if let Some(second) = self.indices[1] {
            write!(f, ":{second}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_read_as_their_base_and_indices() {
        assert_eq!(Label::from("collector").to_string(), "collector");
        assert_eq!(Label::from(String::from("w7")).to_string(), "w7");
        assert_eq!(Label::indexed("hpl-rank", 12).to_string(), "hpl-rank12");
        assert_eq!(Label::indexed_pair("cpu:", 0, 1).to_string(), "cpu:0:1");
    }
}

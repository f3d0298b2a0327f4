//! Resource demand and capacity vectors.
//!
//! The paper models a heterogeneous platform with `m` *resource types*
//! (core clusters) and a core-count vector `Θ = (Θ1, …, Θm)`. Operating
//! points demand an integral number of cores per type (a [`ResourceVec`]).

use std::fmt;
use std::ops::{Add, AddAssign, Index, Sub};

use serde::{Deserialize, Serialize};

/// An integral per-resource-type core demand or availability vector.
///
/// Component `k` counts cores of type `k`. Comparisons are component-wise:
/// [`ResourceVec::fits_within`] implements the `≤` of constraint (2b) in the
/// paper.
///
/// # Examples
///
/// ```
/// use amrm_platform::ResourceVec;
///
/// let demand = ResourceVec::from_slice(&[2, 1]);
/// let avail = ResourceVec::from_slice(&[2, 2]);
/// assert!(demand.fits_within(&avail));
/// assert!(!avail.fits_within(&demand));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceVec(Vec<u32>);

impl ResourceVec {
    /// Creates a vector of `m` zero components.
    pub fn zeros(m: usize) -> Self {
        ResourceVec(vec![0; m])
    }

    /// Creates a vector from explicit per-type counts.
    pub fn from_slice(counts: &[u32]) -> Self {
        ResourceVec(counts.to_vec())
    }

    /// Number of resource types `m`.
    pub fn num_types(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// Total number of cores across all types.
    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Component-wise `self ≤ other`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn fits_within(&self, other: &ResourceVec) -> bool {
        assert_eq!(self.0.len(), other.0.len(), "resource type count mismatch");
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        assert_eq!(self.0.len(), other.0.len(), "resource type count mismatch");
        ResourceVec(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        )
    }

    /// Iterates over the per-type counts.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }

    /// The counts as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

impl Index<usize> for ResourceVec {
    type Output = u32;

    fn index(&self, k: usize) -> &u32 {
        &self.0[k]
    }
}

impl Add for &ResourceVec {
    type Output = ResourceVec;

    fn add(self, rhs: &ResourceVec) -> ResourceVec {
        assert_eq!(self.0.len(), rhs.0.len(), "resource type count mismatch");
        ResourceVec(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl AddAssign<&ResourceVec> for ResourceVec {
    fn add_assign(&mut self, rhs: &ResourceVec) {
        assert_eq!(self.0.len(), rhs.0.len(), "resource type count mismatch");
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a += b;
        }
    }
}

impl Sub for &ResourceVec {
    type Output = ResourceVec;

    /// Component-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if any component would underflow.
    fn sub(self, rhs: &ResourceVec) -> ResourceVec {
        assert_eq!(self.0.len(), rhs.0.len(), "resource type count mismatch");
        ResourceVec(
            self.0
                .iter()
                .zip(&rhs.0)
                .map(|(a, b)| a.checked_sub(*b).expect("resource underflow"))
                .collect(),
        )
    }
}

impl FromIterator<u32> for ResourceVec {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        ResourceVec(iter.into_iter().collect())
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let v = ResourceVec::zeros(3);
        assert!(v.is_zero());
        assert_eq!(v.total(), 0);
        assert_eq!(v.num_types(), 3);
    }

    #[test]
    fn fits_within_componentwise() {
        let a = ResourceVec::from_slice(&[1, 2]);
        let b = ResourceVec::from_slice(&[2, 2]);
        assert!(a.fits_within(&b));
        assert!(!b.fits_within(&a));
        assert!(a.fits_within(&a));
    }

    #[test]
    fn incomparable_vectors_do_not_fit_either_way() {
        let a = ResourceVec::from_slice(&[2, 0]);
        let b = ResourceVec::from_slice(&[0, 2]);
        assert!(!a.fits_within(&b));
        assert!(!b.fits_within(&a));
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = ResourceVec::from_slice(&[1, 2]);
        let b = ResourceVec::from_slice(&[3, 1]);
        let sum = &a + &b;
        assert_eq!(sum, ResourceVec::from_slice(&[4, 3]));
        assert_eq!(&sum - &b, a);
    }

    #[test]
    #[should_panic(expected = "resource underflow")]
    fn sub_underflow_panics() {
        let a = ResourceVec::from_slice(&[1, 0]);
        let b = ResourceVec::from_slice(&[0, 1]);
        let _ = &a - &b;
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        let a = ResourceVec::from_slice(&[1]);
        let b = ResourceVec::from_slice(&[1, 2]);
        let _ = a.fits_within(&b);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = ResourceVec::from_slice(&[1, 3]);
        let b = ResourceVec::from_slice(&[2, 1]);
        assert_eq!(a.saturating_sub(&b), ResourceVec::from_slice(&[0, 2]));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = ResourceVec::zeros(2);
        a += &ResourceVec::from_slice(&[1, 2]);
        a += &ResourceVec::from_slice(&[2, 0]);
        assert_eq!(a, ResourceVec::from_slice(&[3, 2]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ResourceVec::from_slice(&[2, 1]).to_string(), "(2, 1)");
    }

    #[test]
    fn collects_from_iterators() {
        let r: ResourceVec = [1u32, 2].into_iter().collect();
        assert_eq!(r, ResourceVec::from_slice(&[1, 2]));
    }
}

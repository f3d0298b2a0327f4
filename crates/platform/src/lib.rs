//! Heterogeneous platform models for runtime resource management.
//!
//! This crate provides the platform side of the system model in
//! *"Energy-efficient Runtime Resource Management for Adaptable
//! Multi-application Mapping"* (Khasanov & Castrillon, DATE 2020): a platform
//! is a set of `m` core types with a core-count vector `Θ`, and resource
//! demands/capacities are `m`-dimensional vectors.
//!
//! # Examples
//!
//! ```
//! use amrm_platform::{Platform, ResourceVec};
//!
//! let platform = Platform::odroid_xu4();
//! let demand = ResourceVec::from_slice(&[2, 1]); // 2 little + 1 big core
//! assert!(platform.can_fit(&demand));
//! ```

mod core_type;
mod platform;
mod resources;

pub use crate::core_type::{CoreType, FrequencyLevel};
pub use crate::platform::{Platform, PlatformBuilder};
pub use crate::resources::ResourceVec;

/// Tolerance used for floating-point time/capacity comparisons throughout
/// the workspace.
pub const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_is_small() {
        let eps = EPS;
        assert!(eps < 1e-6);
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Platform>();
        assert_send_sync::<ResourceVec>();
        assert_send_sync::<CoreType>();
    }
}

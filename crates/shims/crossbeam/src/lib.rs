//! Offline shim of the `crossbeam` API surface this workspace uses:
//! `utils::CachePadded`. Scoped threads come from `std::thread::scope`.

#![warn(missing_docs)]

/// Utility types.
pub mod utils {
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so neighbouring values never
    /// share a cache line (matches upstream's x86_64 alignment, which packs
    /// for adjacent-line prefetch pairs).
    #[derive(Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in padding.
        pub const fn new(value: T) -> Self {
            Self { value }
        }

        /// Unwraps the value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_tuple("CachePadded").field(&self.value).finish()
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            Self::new(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::CachePadded;

    #[test]
    fn cache_padded_is_big_and_transparent() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        let p = CachePadded::new(41u64);
        assert_eq!(*p + 1, 42);
        assert_eq!(p.into_inner(), 41);
    }
}

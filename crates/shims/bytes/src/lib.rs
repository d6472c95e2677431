//! Vendored stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crate registry, so the
//! workspace ships the minimal API surface it actually uses: [`Bytes`],
//! an immutable, cheaply clonable (reference-counted) byte buffer with
//! zero-copy subslicing via [`Bytes::slice`]. Semantics match the real
//! crate for this subset; `BytesMut` is intentionally absent. In its
//! place, [`Bytes::from_fill`] lets a producer write a new buffer's
//! bytes in place, inside the shared allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted byte buffer. `clone()` and
/// [`Bytes::slice`] are O(1): both share the backing allocation.
///
/// The reference counts and the bytes live in one allocation (an
/// `Arc<[u8]>`), so reading a buffer is one pointer hop. That is why
/// `Bytes::from(Vec<u8>)` copies: safe code cannot grow a vector's
/// allocation by the counts' header. [`Bytes::from_fill`] is the
/// copy-free way in.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

/// The shared empty backing store: `Bytes::new()` must not allocate —
/// empty payloads ride the simulator's per-packet path.
fn empty_arc() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Bytes {
    /// Creates an empty buffer (shares one static empty allocation).
    #[must_use]
    pub fn new() -> Self {
        Self {
            data: empty_arc(),
            off: 0,
            len: 0,
        }
    }

    /// Copies `slice` into a new buffer.
    #[must_use]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        if slice.is_empty() {
            return Self::new();
        }
        Self {
            data: slice.into(),
            off: 0,
            len: slice.len(),
        }
    }

    /// A buffer of `len` bytes that `fill` writes in place. The bytes
    /// are allocated once, zeroed, inside the shared allocation and
    /// handed to `fill` before anything else can see them, so a producer
    /// — a frame reader, an encoder — builds a buffer with no staging
    /// vector and no copy.
    #[must_use]
    pub fn from_fill(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if len == 0 {
            fill(&mut []);
            return Self::new();
        }
        // An exact-size iterator collects straight into one allocation.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut data).expect("a new Arc has no other owner"));
        Self { data, off: 0, len }
    }

    /// Creates a buffer from a static byte slice (copies; the real crate
    /// borrows, but the observable behavior is identical).
    #[must_use]
    pub fn from_static(slice: &'static [u8]) -> Self {
        Self::copy_from_slice(slice)
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A zero-copy view of `range` within this buffer: the result shares
    /// the backing allocation. Panics if the range is out of bounds,
    /// matching the real crate.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice start {start} > end {end}");
        assert!(
            end <= self.len,
            "slice end {end} out of bounds ({})",
            self.len
        );
        Self {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Copies the vector's bytes into a new shared allocation (see
/// [`Bytes`] for why it cannot adopt the vector's own).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Self::new();
        }
        let len = v.len();
        Self {
            data: v.into(),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Self::copy_from_slice(&v)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

// Equality, ordering, and hashing are over the *viewed* bytes, so a
// slice view and a fresh copy of the same content are interchangeable.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other.as_slice()[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn from_fill_writes_in_place() {
        let mut seen = std::ptr::null();
        let a = Bytes::from_fill(1400, |buf| {
            assert!(buf.iter().all(|&b| b == 0), "handed over zeroed");
            buf[7] = 9;
            seen = buf.as_ptr();
        });
        assert_eq!(a.len(), 1400);
        assert_eq!(a.as_ptr(), seen, "the filled bytes are the buffer");
        assert_eq!((a[7], a[8]), (9, 0));
        let empty = Bytes::from_fill(0, |buf| assert!(buf.is_empty()));
        assert_eq!(empty.as_ptr(), Bytes::new().as_ptr());
    }

    #[test]
    fn clone_is_shared() {
        let a = Bytes::from(vec![9; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn deref_and_to_vec() {
        let a = Bytes::from(vec![5, 6]);
        assert_eq!(&a[..], &[5, 6]);
        assert_eq!(a.to_vec(), vec![5, 6]);
        assert_eq!(a.iter().sum::<u8>(), 11);
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let a = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let view = a.slice(8..20);
        assert_eq!(view.len(), 12);
        assert_eq!(&view[..], &(8u8..20).collect::<Vec<u8>>()[..]);
        // Shares the allocation: pointer into the same backing store.
        assert_eq!(view.as_ptr(), a[8..].as_ptr());
        // Sub-slicing a view composes offsets.
        let sub = view.slice(2..=3);
        assert_eq!(&sub[..], &[10, 11]);
        // Open-ended ranges.
        assert_eq!(a.slice(..4).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.slice(30..).to_vec(), vec![30, 31]);
        assert_eq!(a.slice(..).len(), 32);
    }

    #[test]
    fn views_compare_by_content() {
        let a = Bytes::from(vec![7, 8, 9, 7, 8, 9]);
        assert_eq!(a.slice(0..3), a.slice(3..6));
        let copy = Bytes::from(vec![7, 8, 9]);
        assert_eq!(a.slice(0..3), copy);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |b: &Bytes| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a.slice(0..3)), h(&copy));
    }

    #[test]
    fn empty_instances_share_backing() {
        let a = Bytes::new();
        let b = Bytes::from(Vec::new());
        let c = Bytes::copy_from_slice(&[]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.as_ptr(), b.as_ptr(), "empty buffers share one arc");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_slice_panics() {
        let a = Bytes::from(vec![1, 2, 3]);
        let _ = a.slice(1..5);
    }
}

//! The one message/file payload type of the simulator: an immutable,
//! cheaply-clonable byte string with zero-copy [`Bytes::slice`].
//!
//! Writers build a `Vec<u8>` and convert it with `.into()`.
//!
//! Three representations sit behind the one 32-byte `Bytes` value:
//!
//! * **Inline** — payloads up to [`Bytes::INLINE_CAP`] (30) bytes live
//!   directly in the value. Small-message creation (control frames,
//!   sub-eager payloads) allocates nothing; this
//!   is the zero-allocation small-message fast path the MPI layer rides.
//! * **Static** — `from_static` borrows the `'static` slice, no copy.
//!   [`Bytes::zeroed`] is a view of one static zero buffer: the
//!   surrogate payloads of modeled applications (halo faces nobody
//!   reads) cost neither an allocation nor a memset.
//! * **Shared** — an `Arc<Vec<u8>>` plus a view range: clones and
//!   slices of large payloads share one refcounted allocation.
//!
//! Equality is by content, so the representations mix freely.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Longest payload [`Bytes::zeroed`] serves from [`ZEROS`]. A fixed
/// size, not a knob: 64 KiB covers every modeled halo face and message
/// of the bundled applications and costs nothing until touched (the
/// buffer lives in `.bss`).
const ZEROED_CAP: usize = 64 * 1024;

/// The shared all-zero buffer behind [`Bytes::zeroed`].
static ZEROS: [u8; ZEROED_CAP] = [0; ZEROED_CAP];

#[derive(Clone)]
enum Repr {
    /// Payload stored in the value itself; no allocation.
    Inline {
        len: u8,
        buf: [u8; Bytes::INLINE_CAP],
    },
    /// Borrowed static slice; no allocation, no copy.
    Static(&'static [u8]),
    /// Refcounted heap buffer with a zero-copy view range.
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
}

#[derive(Clone)]
pub struct Bytes(Repr);

impl Default for Bytes {
    fn default() -> Self {
        Bytes(Repr::Inline {
            len: 0,
            buf: [0; Bytes::INLINE_CAP],
        })
    }
}

impl Bytes {
    /// Largest payload stored inline (no heap allocation).
    pub const INLINE_CAP: usize = 30;

    pub fn new() -> Self {
        Bytes::default()
    }

    #[inline]
    fn inline_from(b: &[u8]) -> Self {
        debug_assert!(b.len() <= Bytes::INLINE_CAP);
        let mut buf = [0u8; Bytes::INLINE_CAP];
        buf[..b.len()].copy_from_slice(b);
        Bytes(Repr::Inline {
            len: b.len() as u8,
            buf,
        })
    }

    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes(Repr::Static(b))
    }

    pub fn copy_from_slice(b: &[u8]) -> Self {
        if b.len() <= Bytes::INLINE_CAP {
            Bytes::inline_from(b)
        } else {
            b.to_vec().into()
        }
    }

    /// `len` zero bytes — the same content as a zero-filled `Vec`
    /// converted with `.into()`, but up to 64 KiB it is a static view
    /// that allocates and writes nothing. Longer payloads fall back to
    /// one heap buffer.
    pub fn zeroed(len: usize) -> Self {
        if len <= ZEROED_CAP {
            Bytes(Repr::Static(&ZEROS[..len]))
        } else {
            vec![0u8; len].into()
        }
    }

    /// Whether the payload is stored without a heap allocation (inline
    /// or static).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        !matches!(self.0, Repr::Shared { .. })
    }

    /// Whether the payload is a view of static memory.
    #[cfg(test)]
    fn is_static(&self) -> bool {
        matches!(self.0, Repr::Static(_))
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }

    /// Zero-copy sub-view sharing the backing allocation; inline
    /// payloads copy into a new inline value. Panics on an out-of-range
    /// or inverted range.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.as_slice().len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range for {len}"
        );
        match &self.0 {
            Repr::Inline { buf, .. } => Bytes::inline_from(&buf[lo..hi]),
            Repr::Static(s) => Bytes(Repr::Static(&s[lo..hi])),
            Repr::Shared { buf, start, .. } => Bytes(Repr::Shared {
                buf: buf.clone(),
                start: start + lo,
                end: start + hi,
            }),
        }
    }

    /// The payload as an owned `Vec`. The sole, full view of a heap
    /// buffer hands back that buffer without a copy (a receiver that
    /// folds into the bytes it forwards); any other value is copied.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Shared { buf, start: 0, end } if end == buf.len() => {
                Arc::try_unwrap(buf).unwrap_or_else(|shared| shared.to_vec())
            }
            _ => self.to_vec(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= Bytes::INLINE_CAP {
            return Bytes::inline_from(&v);
        }
        let end = v.len();
        Bytes(Repr::Shared {
            buf: Arc::new(v),
            start: 0,
            end,
        })
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
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
    fn bytes_is_32_bytes_and_small_payloads_inline() {
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
        assert!(Bytes::copy_from_slice(&[7u8; Bytes::INLINE_CAP]).is_inline());
        assert!(!Bytes::copy_from_slice(&[7u8; Bytes::INLINE_CAP + 1]).is_inline());
        assert!(Bytes::from_static(b"static data never allocates here").is_inline());
        assert!(Bytes::from(vec![1u8; 8]).is_inline());
        assert!(!Bytes::from(vec![1u8; 100]).is_inline());
    }

    #[test]
    fn representations_compare_by_content() {
        let data = b"hello world";
        let a = Bytes::copy_from_slice(data);
        let b = Bytes::from_static(data);
        let c = Bytes::from(data.to_vec().repeat(4)).slice(..data.len());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(&a[..], data);
    }

    #[test]
    fn slice_semantics_hold_across_representations() {
        let long = Bytes::from(vec![9u8; 64]);
        let view = long.slice(8..40);
        assert_eq!(view.len(), 32);
        assert!(!view.is_inline());
        let short = view.slice(..4);
        assert!(!short.is_inline(), "shared slices stay zero-copy views");
        assert_eq!(&short[..], &[9u8; 4]);
        let stat = Bytes::from_static(b"abcdef").slice(1..=3);
        assert_eq!(&stat[..], b"bcd");
        let inl = Bytes::copy_from_slice(b"0123456789").slice(2..5);
        assert_eq!(&inl[..], b"234");
    }

    #[test]
    fn zeroed_is_static_up_to_the_cap_and_heap_above() {
        for len in [0, 1, Bytes::INLINE_CAP, 2048, ZEROED_CAP - 1, ZEROED_CAP] {
            let z = Bytes::zeroed(len);
            assert!(z.is_static(), "{len} B");
            assert_eq!(z, Bytes::from(vec![0; len]), "{len} B");
            assert_eq!(z.len(), len);
        }
        let big = Bytes::zeroed(ZEROED_CAP + 1);
        assert!(!big.is_inline(), "above the cap: one heap buffer");
        assert_eq!(big, Bytes::from(vec![0; ZEROED_CAP + 1]));
        // Every static view borrows the one buffer.
        assert_eq!(Bytes::zeroed(16).as_ptr(), Bytes::zeroed(4096).as_ptr());
    }

    #[test]
    fn a_slice_of_zeroed_stays_a_static_view() {
        let z = Bytes::zeroed(ZEROED_CAP);
        let s = z.slice(100..4196);
        assert!(s.is_static());
        assert_eq!(s.len(), 4096);
        assert_eq!(s.as_ptr(), z[100..].as_ptr(), "no copy");
        assert!(s.clone().is_static());
        assert!(s.iter().all(|&b| b == 0));
    }

    #[test]
    fn into_vec_unwraps_only_the_sole_full_view() {
        let v = vec![5u8; 64];
        let ptr = v.as_ptr();
        let out = Bytes::from(v).into_vec();
        assert_eq!(out.as_ptr(), ptr, "sole full view: no copy");

        let shared = Bytes::from(vec![6u8; 64]);
        let ptr = shared.as_ptr();
        let clone = shared.clone();
        let out = clone.into_vec();
        assert_ne!(out.as_ptr(), ptr, "a clone is still shared: copy");
        assert_eq!(out, vec![6u8; 64]);
        let out = shared.slice(..).into_vec();
        assert_ne!(out.as_ptr(), ptr, "a full slice is a clone");
        let part = shared.slice(8..);
        drop(shared);
        let out = part.into_vec();
        assert_ne!(out.as_ptr(), ptr, "a partial view: copy");
        assert_eq!(out, vec![6u8; 56]);

        let inline = Bytes::copy_from_slice(b"tiny");
        let ptr = inline.as_ptr();
        let out = inline.into_vec();
        assert_eq!(out, b"tiny");
        assert_ne!(out.as_ptr(), ptr);
        let stat = Bytes::from_static(b"a static payload longer than thirty bytes");
        let out = stat.clone().into_vec();
        assert_eq!(&out[..], &stat[..]);
        assert_ne!(out.as_ptr(), stat.as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        Bytes::copy_from_slice(b"abc").slice(1..5);
    }
}

//! Element iteration.
//!
//! Each element is read under the scheme's own read protocol, so the
//! iterator never blocks resizes and a resize never invalidates it; the
//! sequence as a whole is *not* one atomic snapshot (elements may change
//! mid-iteration), matching how a Chapel `forall` over the paper's array
//! would behave.

use crate::array::RcuArray;
use crate::element::Element;
use crate::scheme::Scheme;

/// Iterator over current element values; see [module docs](self).
pub struct Iter<'a, T: Element, S: Scheme> {
    array: &'a RcuArray<T, S>,
    next: usize,
    /// Capacity captured at creation: elements appended by concurrent
    /// resizes are not visited.
    len: usize,
}

impl<'a, T: Element, S: Scheme> Iter<'a, T, S> {
    pub(crate) fn new(array: &'a RcuArray<T, S>) -> Self {
        Iter {
            next: 0,
            len: array.capacity(),
            array,
        }
    }
}

impl<T: Element, S: Scheme> Iterator for Iter<'_, T, S> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.next >= self.len {
            return None;
        }
        let v = self.array.read(self.next);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.next;
        (rem, Some(rem))
    }
}

impl<T: Element, S: Scheme> ExactSizeIterator for Iter<'_, T, S> {}

#[cfg(test)]
mod tests {
    use crate::array::QsbrArray;
    use crate::config::Config;
    use rcuarray_runtime::Cluster;

    fn array(cap: usize) -> QsbrArray<u32> {
        let c = Cluster::with_locales(2);
        let a = QsbrArray::with_config(&c, Config::with_block_size(4));
        a.resize(cap);
        a
    }

    #[test]
    fn yields_every_element_in_order() {
        let a = array(8);
        for i in 0..8 {
            a.write(i, i as u32 * 10);
        }
        let v: Vec<u32> = a.iter().collect();
        assert_eq!(v, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn empty_array_yields_nothing() {
        let c = Cluster::with_locales(1);
        let a = QsbrArray::<u32>::with_config(&c, Config::with_block_size(4));
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let a = array(8);
        let mut it = a.iter();
        assert_eq!(it.size_hint(), (8, Some(8)));
        assert_eq!(it.len(), 8);
        it.next();
        assert_eq!(it.len(), 7);
    }

    #[test]
    fn concurrent_resize_does_not_extend_iteration() {
        let a = array(4);
        let mut it = a.iter();
        it.next();
        a.resize(4); // grow mid-iteration
        assert_eq!(it.count(), 3, "iterator visits the captured length only");
        assert_eq!(a.capacity(), 8);
    }
}

//! Record storage that is allocated chunk by chunk, on first touch.

use std::ops::{Index, IndexMut};

/// Records per chunk. A power of two, so an index splits into chunk and
/// offset with a shift and a mask whatever the record size.
const CHUNK_RECORDS: usize = 64;

/// An array of fixed-size records of `T` whose storage is allocated in
/// chunks of 64 consecutive records, each the first time one of its
/// records is [touched](Chunked::touch).
///
/// This is the storage behind the per-node tables whose size the paper
/// fixes but of which a run uses a sliver — [`CacheArray`](crate::CacheArray)'s
/// — so that a table costs what a run touches of it, not what its geometry
/// could hold. A new `Chunked` owns no allocation. A chunk, once
/// allocated, is never moved, resized or freed before the whole array is
/// dropped, so growth copies no record and leaves no abandoned buffer
/// behind. A table whose touched records cluster can index it directly;
/// one whose touched records scatter (the cache's sets) hands out indices
/// as sets fill, takes back those of sets that empty, and keeps its own map
/// to them.
///
/// # Examples
///
/// ```
/// use patchsim_mem::Chunked;
///
/// let mut records: Chunked<u64> = Chunked::new(3);
/// assert_eq!(records.allocated(), 0);
/// records.touch(70)[2] = 7;
/// assert_eq!(records.get(70), Some(&[0, 0, 7][..]));
/// assert_eq!(records[64], [0, 0, 0], "same chunk, never written");
/// assert_eq!(records.get(0), None, "a chunk nothing touched");
/// assert_eq!(records.allocated(), 64);
/// ```
#[derive(Debug)]
pub struct Chunked<T> {
    record_len: usize,
    chunks: Vec<Option<Box<[T]>>>,
}

impl<T> Chunked<T> {
    /// Creates an array of records of `record_len` elements each, none of
    /// them allocated.
    ///
    /// # Panics
    ///
    /// Panics if `record_len` is zero.
    pub fn new(record_len: usize) -> Self {
        assert!(record_len > 0, "records must hold at least one element");
        Chunked {
            record_len,
            chunks: Vec::new(),
        }
    }

    /// Number of records the chunks allocated so far hold.
    pub fn allocated(&self) -> usize {
        self.chunks.iter().flatten().count() * CHUNK_RECORDS
    }

    /// Where record `index` starts in its chunk.
    fn start(&self, index: usize) -> usize {
        index % CHUNK_RECORDS * self.record_len
    }

    /// The record at `index`, if its chunk was ever touched. A record never
    /// written holds default elements.
    pub fn get(&self, index: usize) -> Option<&[T]> {
        let chunk = self.chunks.get(index / CHUNK_RECORDS)?.as_deref()?;
        let start = self.start(index);
        Some(&chunk[start..start + self.record_len])
    }
}

impl<T: Default> Chunked<T> {
    /// The record at `index`, mutably, first allocating its chunk — 64
    /// records of default elements — if nothing touched it before.
    pub fn touch(&mut self, index: usize) -> &mut [T] {
        if self.get(index).is_none() {
            self.allocate(index / CHUNK_RECORDS);
        }
        &mut self[index]
    }

    /// Out of line: a table touches a new chunk a few dozen times in a run
    /// and an old one millions of times.
    #[cold]
    fn allocate(&mut self, chunk: usize) {
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        let elements = CHUNK_RECORDS * self.record_len;
        self.chunks[chunk] = Some((0..elements).map(|_| T::default()).collect());
    }
}

/// The record at `index`.
///
/// # Panics
///
/// Panics if the record's chunk was never touched.
impl<T> Index<usize> for Chunked<T> {
    type Output = [T];

    fn index(&self, index: usize) -> &[T] {
        self.get(index).expect("record in a chunk never touched")
    }
}

impl<T> IndexMut<usize> for Chunked<T> {
    fn index_mut(&mut self, index: usize) -> &mut [T] {
        let start = self.start(index);
        let chunk = self.chunks.get_mut(index / CHUNK_RECORDS);
        let chunk = chunk.and_then(|chunk| chunk.as_deref_mut());
        let chunk = chunk.expect("record in a chunk never touched");
        &mut chunk[start..start + self.record_len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appending_allocates_one_chunk_per_64_records_and_never_moves_one() {
        let mut records: Chunked<u32> = Chunked::new(5);
        let mut addresses = Vec::new();
        for i in 0..3 * CHUNK_RECORDS + 1 {
            assert_eq!(
                records.allocated(),
                i.div_ceil(CHUNK_RECORDS) * CHUNK_RECORDS
            );
            assert_eq!(records.touch(i), &[0; 5], "a new record is default");
            records.touch(i).fill(i as u32);
            addresses.push(records.get(i).unwrap().as_ptr());
        }
        assert_eq!(records.allocated(), 4 * CHUNK_RECORDS);
        for (i, &address) in addresses.iter().enumerate() {
            assert_eq!(records.get(i).unwrap(), &[i as u32; 5]);
            assert_eq!(records[i].as_ptr(), address);
        }
    }

    #[test]
    fn touching_out_of_order_allocates_only_the_chunks_touched() {
        let mut records: Chunked<u8> = Chunked::new(2);
        records.touch(5 * CHUNK_RECORDS + 3)[1] = 9;
        records.touch(2 * CHUNK_RECORDS)[0] = 4;
        assert_eq!(records.allocated(), 2 * CHUNK_RECORDS);
        assert_eq!(records.get(5 * CHUNK_RECORDS + 3), Some(&[0, 9][..]));
        assert_eq!(records.get(2 * CHUNK_RECORDS), Some(&[4, 0][..]));
        for untouched in [
            0,
            CHUNK_RECORDS,
            3 * CHUNK_RECORDS,
            6 * CHUNK_RECORDS,
            usize::MAX,
        ] {
            assert_eq!(records.get(untouched), None);
        }
        assert_eq!(
            records.allocated(),
            2 * CHUNK_RECORDS,
            "lookups allocate nothing"
        );
    }

    #[test]
    #[should_panic(expected = "chunk never touched")]
    fn indexing_an_untouched_chunk_panics() {
        let mut records: Chunked<u8> = Chunked::new(1);
        records.touch(0);
        records[64][0] = 1;
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_records_are_refused() {
        Chunked::<u8>::new(0);
    }
}

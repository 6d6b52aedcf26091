//! Recycling arena for message payload buffers.
//!
//! Protocol messages that carry id lists (query replies, cluster handover
//! payloads) used to allocate a fresh `Vec` per send and drop it at the
//! receiver — at n = 10⁶ that is millions of short-lived heap round trips
//! on the hot path. A [`MessageArena`] keeps a small pool of emptied
//! buffers per node: senders [`alloc`](MessageArena::alloc) from it,
//! receivers hand consumed payloads back via
//! [`recycle`](MessageArena::recycle). Pooling is per node.

/// A bounded pool of reusable `Vec<T>` payload buffers.
///
/// # Example
///
/// ```
/// use ard_netsim::MessageArena;
///
/// let mut arena: MessageArena<u32> = MessageArena::new();
/// let mut buf = arena.alloc();
/// buf.extend([1, 2, 3]);
/// let capacity = buf.capacity();
/// arena.recycle(buf);
/// let reused = arena.alloc();
/// assert!(reused.is_empty());
/// assert_eq!(reused.capacity(), capacity, "allocation was reused");
/// ```
#[derive(Debug)]
pub struct MessageArena<T> {
    pool: Vec<Vec<T>>,
    cap: usize,
}

/// Default bound on pooled buffers per arena.
///
/// A node rarely has more than a handful of payload-carrying messages in
/// flight at once; a small cap keeps worst-case retained memory bounded.
const DEFAULT_POOL_CAP: usize = 8;

impl<T> MessageArena<T> {
    /// An empty arena holding at most `DEFAULT_POOL_CAP` (8) spare buffers.
    pub fn new() -> Self {
        MessageArena {
            pool: Vec::new(),
            cap: DEFAULT_POOL_CAP,
        }
    }

    /// Hands out an empty buffer, reusing a recycled one when available.
    pub fn alloc(&mut self) -> Vec<T> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a consumed buffer to the pool (cleared; dropped if the pool
    /// is full).
    pub fn recycle(&mut self, mut buf: Vec<T>) {
        if self.pool.len() < self.cap && buf.capacity() > 0 {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Number of spare buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

impl<T> Default for MessageArena<T> {
    fn default() -> Self {
        MessageArena::new()
    }
}

/// Cloning an arena clones no spare buffers: the pool is a cache, not
/// state, so a forked node starts with an empty one.
impl<T> Clone for MessageArena<T> {
    fn clone(&self) -> Self {
        MessageArena {
            pool: Vec::new(),
            cap: self.cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_bounded_and_buffers_cleared() {
        let mut arena: MessageArena<u8> = MessageArena {
            pool: Vec::new(),
            cap: 2,
        };
        arena.recycle(Vec::with_capacity(4));
        arena.recycle(Vec::with_capacity(4));
        arena.recycle(Vec::with_capacity(4)); // over cap: dropped
        assert_eq!(arena.pooled(), 2);
        let buf = arena.alloc();
        assert!(buf.is_empty());
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut arena: MessageArena<u8> = MessageArena::new();
        arena.recycle(Vec::new());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn clone_starts_empty() {
        let mut arena: MessageArena<u8> = MessageArena::new();
        arena.recycle(Vec::with_capacity(1));
        let cloned = arena.clone();
        assert_eq!(cloned.pooled(), 0);
    }
}

//! Every in-flight message of a run, in one slab behind one transient
//! link index.
//!
//! A large run sends over hundreds of thousands of directed links but holds
//! only a few tens of thousands of messages at any moment (n = 65,536
//! random: 474,452 links, at most 42,783 messages in flight), and a fifo
//! round averages ~4.5. [`LinkQueues`] pays for neither the links nor
//! their history: a link is keyed by a caller-chosen `u64` and owns an
//! index entry *only while it has messages queued* — the first
//! [`push_back`](LinkQueues::push_back) inserts it, the
//! [`pop_front`](LinkQueues::pop_front) that drains it removes it. The
//! index is a small open-addressed table (linear probing, backward-shift
//! deletion, never more than half full, halved when an eighth full), so it
//! is sized by the links that are live right now; each entry threads an
//! intrusive FIFO list through a single slab of cells, and a popped cell
//! goes on a LIFO free list, so the next push reuses the most recently
//! touched cell and the slab never grows past the peak number of
//! simultaneously queued items. Memory is
//! `live links × 16 B × 2…8 + peak in-flight × cell size`; a link that
//! carries nothing costs nothing.

/// "No cell": the end of the free list.
const NIL: u32 = u32::MAX;

/// Smallest allocated index: 128 live links before the first resize, so
/// the few links a fifo round or a small network keeps live never resize
/// it, and the whole table (4 KiB) stays cache-resident.
const MIN_SLOTS: usize = 256;

/// One index slot: a live link's key and its list, or vacant (`len == 0`).
/// The list is circular — the last cell's `next` is the first cell — so
/// the slot names only the last: 16 bytes, four slots to a cache line,
/// and a one-message link (almost all of them) is one cell pointing at
/// itself.
#[derive(Clone, Copy, Debug)]
struct Link {
    key: u64,
    tail: u32,
    len: u32,
}

const VACANT: Link = Link {
    key: 0,
    tail: NIL,
    len: 0,
};

/// A slab cell: a queued item and the next cell round its link's list, or
/// an empty cell and the next cell of the free list.
#[derive(Clone, Debug)]
struct Cell<T> {
    item: Option<T>,
    next: u32,
}

/// Where `key`'s probe sequence starts in an index of `slots` entries
/// (a power of two, at least 2): the top bits of a multiplicative hash.
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - slots.trailing_zeros())) as usize
}

/// Per-link FIFO queues sharing one slab.
///
/// Links are named by any `u64` key (the simulator packs `(src, dst)`);
/// no link needs declaring, queues on different links are independent, and
/// each is strictly first-in first-out. A link is *live* while it has
/// items queued; only live links occupy memory.
///
/// # Example
///
/// ```
/// use ard_netsim::LinkQueues;
///
/// let mut q: LinkQueues<&str> = LinkQueues::new();
/// let (a, b) = ((7 << 32) | 9, (9 << 32) | 7);
/// assert_eq!(q.push_back(a, "a1"), 1);
/// assert_eq!(q.push_back(b, "b1"), 1);
/// assert_eq!(q.push_back(a, "a2"), 2);
/// assert_eq!((q.in_flight(), q.live_links()), (3, 2));
/// assert_eq!(q.pop_front(a), Some("a1"));
/// assert_eq!(q.front(a), Some(&"a2"));
/// assert_eq!(q.iter(b).collect::<Vec<_>>(), [&"b1"]);
/// assert_eq!(q.pop_front(b), Some("b1"));
/// assert_eq!(q.links().collect::<Vec<_>>(), [a], "a drained link is gone");
/// ```
#[derive(Clone, Debug)]
pub struct LinkQueues<T> {
    /// The live links, open-addressed: empty until the first push, then a
    /// power of two ≥ [`MIN_SLOTS`] and at least twice `live`, so a probe
    /// always ends at a vacant slot.
    index: Vec<Link>,
    /// Occupied slots of `index`.
    live: usize,
    cells: Vec<Cell<T>>,
    /// Most recently freed cell, chained through `Cell::next`.
    free: u32,
    in_flight: usize,
}

impl<T> Default for LinkQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LinkQueues<T> {
    /// Nothing queued, nothing allocated.
    pub fn new() -> Self {
        LinkQueues {
            index: Vec::new(),
            live: 0,
            cells: Vec::new(),
            free: NIL,
            in_flight: 0,
        }
    }

    /// Items queued over all links.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Links with at least one item queued.
    pub fn live_links(&self) -> usize {
        self.live
    }

    /// The keys of the live links, in no particular order.
    pub fn links(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.iter().filter(|l| l.len != 0).map(|l| l.key)
    }

    /// Cells the slab holds, queued or free: the peak of
    /// [`in_flight`](LinkQueues::in_flight) so far.
    pub fn slab_cells(&self) -> usize {
        self.cells.len()
    }

    /// Items queued on `link`.
    pub fn len(&self, link: u64) -> usize {
        self.find(link).map_or(0, |at| self.index[at].len as usize)
    }

    /// Whether nothing is queued on `link`.
    pub fn is_empty(&self, link: u64) -> bool {
        self.find(link).is_none()
    }

    /// Queues `item` behind everything on `link`; returns the link's new
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the slab would need 2³² − 1 cells.
    pub fn push_back(&mut self, link: u64, item: T) -> usize {
        // Room for one more live link, whether or not this push adds one.
        if (self.live + 1) * 2 > self.index.len() {
            self.resize((self.index.len() * 2).max(MIN_SLOTS));
        }
        let filled = Cell {
            item: Some(item),
            next: NIL,
        };
        let cell = match self.free {
            NIL => {
                let cell = u32::try_from(self.cells.len()).unwrap_or(NIL);
                assert!(cell != NIL, "in-flight cells overflow u32");
                self.cells.push(filled);
                cell
            }
            cell => {
                let c = &mut self.cells[cell as usize];
                self.free = c.next;
                *c = filled;
                cell
            }
        };
        self.in_flight += 1;
        let at = self.probe(link);
        let l = &mut self.index[at];
        let head = if l.len == 0 {
            l.key = link;
            self.live += 1;
            cell
        } else {
            std::mem::replace(&mut self.cells[l.tail as usize].next, cell)
        };
        self.cells[cell as usize].next = head;
        l.tail = cell;
        l.len += 1;
        l.len as usize
    }

    /// Removes the oldest item on `link` and frees its cell — and, if that
    /// drains the link, its index entry.
    pub fn pop_front(&mut self, link: u64) -> Option<T> {
        let at = self.find(link)?;
        let l = &mut self.index[at];
        let head = self.cells[l.tail as usize].next;
        let c = &mut self.cells[head as usize];
        let item = c.item.take();
        debug_assert!(item.is_some(), "a queued cell holds an item");
        let second = std::mem::replace(&mut c.next, self.free);
        self.free = head;
        self.in_flight -= 1;
        l.len -= 1;
        if l.len == 0 {
            self.remove(at);
        } else {
            self.cells[l.tail as usize].next = second;
        }
        item
    }

    /// The oldest item on `link`.
    pub fn front(&self, link: u64) -> Option<&T> {
        let tail = self.index[self.find(link)?].tail;
        self.cells[self.cells[tail as usize].next as usize].item.as_ref()
    }

    /// The items on `link`, oldest first.
    pub fn iter(&self, link: u64) -> impl Iterator<Item = &T> {
        let (mut cell, len) = self.find(link).map_or((NIL, 0), |at| {
            let l = self.index[at];
            (self.cells[l.tail as usize].next, l.len)
        });
        (0..len).filter_map(move |_| {
            let c = &self.cells[cell as usize];
            cell = c.next;
            c.item.as_ref()
        })
    }

    /// The slot holding `link`, or the vacant slot that ends its probe
    /// sequence. The index must be allocated.
    fn probe(&self, link: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut at = home(link, self.index.len());
        while self.index[at].len != 0 && self.index[at].key != link {
            at = (at + 1) & mask;
        }
        at
    }

    /// The slot of `link`, if it is live.
    fn find(&self, link: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let at = self.probe(link);
        (self.index[at].len != 0).then_some(at)
    }

    /// Vacates the drained slot `at`, closing the gap it would leave in
    /// the probe sequences running through it: each later entry of the
    /// cluster moves back into the hole unless its home lies after the
    /// hole. Halves an index left under an eighth full.
    fn remove(&mut self, mut at: usize) {
        let mask = self.index.len() - 1;
        let mut next = at;
        loop {
            next = (next + 1) & mask;
            let l = self.index[next];
            if l.len == 0 {
                break;
            }
            let from_home = next.wrapping_sub(home(l.key, self.index.len())) & mask;
            if from_home >= (next.wrapping_sub(at) & mask) {
                self.index[at] = l;
                at = next;
            }
        }
        self.index[at] = VACANT;
        self.live -= 1;
        if self.index.len() > MIN_SLOTS && self.live * 8 < self.index.len() {
            self.resize(self.index.len() / 2);
        }
    }

    /// Re-seats every live link in a fresh index of `slots` entries.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.index, vec![VACANT; slots]);
        for l in old.into_iter().filter(|l| l.len != 0) {
            let at = self.probe(l.key);
            self.index[at] = l;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    /// `count` distinct keys whose probe sequences all start at `slot` of
    /// the smallest index.
    fn keys_homed_at(slot: usize, count: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| home(k, MIN_SLOTS) == slot)
            .take(count)
            .collect()
    }

    /// Deleting from the middle, the front and the wrapped end of one
    /// probe cluster leaves every survivor reachable — the case
    /// backward-shift deletion exists for, at the one place (the last
    /// slot) where the cluster wraps around the table.
    #[test]
    fn deletion_inside_a_wrapped_probe_cluster_keeps_the_rest_reachable() {
        let last = keys_homed_at(MIN_SLOTS - 1, 6);
        let first = keys_homed_at(0, 3);
        // Insertion order decides the layout: `last[0]` sits at home, the
        // other five wrap to slots 0..5 and push the `first` keys (home 0)
        // further along.
        let order: Vec<u64> = last.iter().chain(&first).copied().collect();
        for skip in 0..order.len() {
            let mut q = LinkQueues::new();
            let mut model: HashMap<u64, VecDeque<u64>> = HashMap::new();
            for &k in &order {
                q.push_back(k, k);
                q.push_back(k, k + 1);
                model.entry(k).or_default().extend([k, k + 1]);
            }
            // Drain one link (removing its entry), then a second one two
            // places on, then re-insert the first.
            for gone in [order[skip], order[(skip + 2) % order.len()]] {
                assert_eq!(q.pop_front(gone), Some(gone));
                assert_eq!(q.pop_front(gone), Some(gone + 1));
                assert_eq!(q.pop_front(gone), None);
                model.remove(&gone);
                assert_eq!(q.live_links(), model.len());
                for (k, want) in &model {
                    assert_eq!(q.len(*k), 2, "link {k} lost after removing {gone}");
                    assert!(q.iter(*k).eq(want.iter()));
                }
            }
            assert_eq!(q.push_back(order[skip], 99), 1, "a removed key re-inserts");
            assert_eq!(q.front(order[skip]), Some(&99));
            assert_eq!(q.index.len(), MIN_SLOTS);
        }
    }

    /// The index follows the live links up and back down: never more than
    /// half full, never under an eighth above the floor, and back at the
    /// floor once drained.
    #[test]
    fn index_is_sized_by_the_live_links() {
        let mut q = LinkQueues::new();
        assert_eq!(q.index.len(), 0, "nothing allocated before the first push");
        let check = |q: &LinkQueues<u64>| {
            let slots = q.index.len();
            assert!(slots.is_power_of_two() && slots >= MIN_SLOTS);
            assert!(q.live * 2 <= slots, "{} live in {slots}", q.live);
            assert!(slots == MIN_SLOTS || q.live * 8 >= slots);
        };
        for k in 0..10_000u64 {
            q.push_back((k << 32) | (k + 1), k);
            check(&q);
        }
        assert_eq!(q.index.len(), 32_768);
        for k in 0..10_000u64 {
            assert_eq!(q.pop_front((k << 32) | (k + 1)), Some(k));
            check(&q);
        }
        assert_eq!((q.live, q.index.len()), (0, MIN_SLOTS));
        assert_eq!(q.links().count(), 0);
    }
}

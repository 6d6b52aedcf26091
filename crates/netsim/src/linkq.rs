//! Every in-flight message of a run, in one slab.
//!
//! A large run interns hundreds of thousands of directed links but holds
//! only a few tens of thousands of messages at any moment (n = 65,536
//! random: 474,452 links, at most 42,783 messages in flight). One heap
//! queue per link would pay for the links; [`LinkQueues`] pays for the
//! messages: each link is a 12-byte head threading an intrusive FIFO list
//! through a single slab of cells, and a popped cell goes on a LIFO free
//! list, so the next push reuses the most recently touched cell and the
//! slab never grows past the peak number of simultaneously queued items.
//! Memory is `links × 12 B + peak in-flight × cell size`.

/// "No cell": the `next` of a list's last cell, and `head` / `tail` of an
/// empty link.
const NIL: u32 = u32::MAX;

/// One link's list: first and last cell, and how many lie between.
#[derive(Clone, Copy, Debug)]
struct Link {
    head: u32,
    tail: u32,
    len: u32,
}

/// A slab cell: a queued item and the next cell of its link's list, or an
/// empty cell and the next cell of the free list.
#[derive(Clone, Debug)]
struct Cell<T> {
    item: Option<T>,
    next: u32,
}

/// Per-link FIFO queues sharing one slab.
///
/// Links are dense `u32` slots handed out by
/// [`new_link`](LinkQueues::new_link); queues on different links are
/// independent, and each is strictly first-in first-out.
///
/// # Example
///
/// ```
/// use ard_netsim::LinkQueues;
///
/// let mut q: LinkQueues<&str> = LinkQueues::new();
/// let (a, b) = (q.new_link(), q.new_link());
/// assert_eq!(q.push_back(a, "a1"), 1);
/// assert_eq!(q.push_back(b, "b1"), 1);
/// assert_eq!(q.push_back(a, "a2"), 2);
/// assert_eq!(q.in_flight(), 3);
/// assert_eq!(q.pop_front(a), Some("a1"));
/// assert_eq!(q.front(a), Some(&"a2"));
/// assert_eq!(q.iter(b).collect::<Vec<_>>(), [&"b1"]);
/// ```
#[derive(Clone, Debug)]
pub struct LinkQueues<T> {
    links: Vec<Link>,
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
    /// No links, nothing queued.
    pub fn new() -> Self {
        LinkQueues {
            links: Vec::new(),
            cells: Vec::new(),
            free: NIL,
            in_flight: 0,
        }
    }

    /// Adds an empty link and returns its slot (slots count up from 0).
    ///
    /// # Panics
    ///
    /// Panics on the 2³²-th link.
    pub fn new_link(&mut self) -> u32 {
        let slot = u32::try_from(self.links.len()).expect("link slots overflow u32");
        self.links.push(Link {
            head: NIL,
            tail: NIL,
            len: 0,
        });
        slot
    }

    /// Items queued over all links.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Cells the slab holds, queued or free: the peak of
    /// [`in_flight`](LinkQueues::in_flight) so far.
    pub fn slab_cells(&self) -> usize {
        self.cells.len()
    }

    /// Items queued on `link`.
    pub fn len(&self, link: u32) -> usize {
        self.links[link as usize].len as usize
    }

    /// Whether nothing is queued on `link`.
    pub fn is_empty(&self, link: u32) -> bool {
        self.links[link as usize].len == 0
    }

    /// Queues `item` behind everything on `link`; returns the link's new
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if the slab would need 2³² − 1 cells.
    pub fn push_back(&mut self, link: u32, item: T) -> usize {
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
        let l = &mut self.links[link as usize];
        if l.tail == NIL {
            l.head = cell;
        } else {
            self.cells[l.tail as usize].next = cell;
        }
        l.tail = cell;
        l.len += 1;
        self.in_flight += 1;
        l.len as usize
    }

    /// Removes the oldest item on `link` and frees its cell.
    pub fn pop_front(&mut self, link: u32) -> Option<T> {
        let l = &mut self.links[link as usize];
        let cell = l.head;
        if cell == NIL {
            return None;
        }
        let c = &mut self.cells[cell as usize];
        let item = c.item.take();
        debug_assert!(item.is_some(), "a queued cell holds an item");
        l.head = c.next;
        if l.head == NIL {
            l.tail = NIL;
        }
        l.len -= 1;
        c.next = self.free;
        self.free = cell;
        self.in_flight -= 1;
        item
    }

    /// The oldest item on `link`.
    pub fn front(&self, link: u32) -> Option<&T> {
        let head = self.links[link as usize].head;
        self.cells.get(head as usize)?.item.as_ref()
    }

    /// The items on `link`, oldest first.
    pub fn iter(&self, link: u32) -> impl Iterator<Item = &T> {
        let mut cell = self.links[link as usize].head;
        std::iter::from_fn(move || {
            let c = self.cells.get(cell as usize)?;
            cell = c.next;
            c.item.as_ref()
        })
    }
}

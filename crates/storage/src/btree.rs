//! B+-tree index: `u64` key → [`Rid`], stored on engine pages.
//!
//! Node pages use the standard 32-byte page header (so LSN/format checks
//! work uniformly) followed by a node header and sorted fixed-width
//! entries. Index pages live in non-IPA regions by default — index
//! maintenance shifts entry arrays, which is exactly the structural change
//! the N×M scheme cannot absorb — but nothing prevents placing an index in
//! an IPA region to measure that (the `nm_sweep` bench does).
//!
//! Searches ([`lookup`], [`range`] and the descent every operation starts
//! with) read keys in place: each node is binary-searched directly in the
//! buffered page bytes, and only the keys a probe touches are read. Only
//! mutations decode a node — they read it, rewrite it in memory, and
//! write back only the changed byte span, so WAL records and change
//! tracking stay proportional to the actual modification.

use std::ops::ControlFlow;

use crate::buffer::{BufferPool, PageId};
use crate::catalog::TableInfo;
use crate::error::{Result, StorageError};
use crate::heap::Rid;
use crate::page::{PageMut, SlottedPage, WriteOp, HEADER_LEN};

/// Sentinel for "no page".
const NIL: u64 = u64::MAX;
/// Leaf entry width: key (8) + rid (10).
const LEAF_ENTRY: usize = 18;
/// Internal entry width: key (8) + child (8).
const INT_ENTRY: usize = 16;
/// Node header: type (1) + pad (1) + count (2) + next/leftmost (8).
const NODE_HEADER: usize = 12;

/// Decoded node image.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        rids: Vec<Rid>,
        next: Option<PageId>,
    },
    Internal {
        keys: Vec<u64>,
        /// `children.len() == keys.len() + 1`; child `i` holds keys in
        /// `[keys[i-1], keys[i])`.
        children: Vec<PageId>,
    },
}

/// A node page read in place: accessors decode one field at a time, so a
/// search reads only the keys its binary search probes.
#[derive(Clone, Copy)]
struct NodeView<'a> {
    /// The page body after the standard page header.
    body: &'a [u8],
}

impl<'a> NodeView<'a> {
    fn new(page: &'a [u8]) -> Self {
        NodeView {
            body: &page[HEADER_LEN..],
        }
    }

    fn is_leaf(self) -> bool {
        self.body[0] == 0
    }

    fn count(self) -> usize {
        u16::from_le_bytes(self.body[2..4].try_into().unwrap()) as usize
    }

    fn u64_at(self, off: usize) -> u64 {
        u64::from_le_bytes(self.body[off..off + 8].try_into().unwrap())
    }

    /// Byte offset of entry `i` within the body.
    fn entry(self, i: usize) -> usize {
        let width = if self.is_leaf() {
            LEAF_ENTRY
        } else {
            INT_ENTRY
        };
        NODE_HEADER + i * width
    }

    fn key(self, i: usize) -> u64 {
        self.u64_at(self.entry(i))
    }

    /// Number of leading keys for which `pred` holds (`pred` must hold
    /// for a prefix of the sorted keys), by binary search.
    fn partition_point(self, pred: impl Fn(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Internal node: child `i` (0 is the leftmost child).
    fn child(self, i: usize) -> PageId {
        match i {
            0 => self.u64_at(4),
            _ => self.u64_at(self.entry(i - 1) + 8),
        }
    }

    /// Internal node: the child that owns `key` — the last separator
    /// ≤ `key` decides.
    fn child_for(self, key: u64) -> PageId {
        self.child(self.partition_point(|k| k <= key))
    }

    /// Leaf: the rid of entry `i`.
    fn rid(self, i: usize) -> Rid {
        let off = self.entry(i) + 8;
        Rid::from_bytes(self.body[off..off + 10].try_into().unwrap())
    }

    /// Leaf: the right sibling.
    fn next(self) -> Option<PageId> {
        let ptr = self.u64_at(4);
        (ptr != NIL).then_some(ptr)
    }

    /// Leaf: the rid stored under `key`.
    fn find(self, key: u64) -> Option<Rid> {
        let i = self.partition_point(|k| k < key);
        (i < self.count() && self.key(i) == key).then(|| self.rid(i))
    }

    /// Leaf: call `f` for each entry with `lo ≤ key ≤ hi`, in key order.
    /// Returns the leaf to continue with, or `None` once the range ends.
    fn visit(self, lo: u64, hi: u64, f: &mut impl FnMut(u64, Rid)) -> Option<PageId> {
        for i in self.partition_point(|k| k < lo)..self.count() {
            let k = self.key(i);
            if k > hi {
                return None;
            }
            f(k, self.rid(i));
        }
        self.next()
    }
}

impl Node {
    /// Decode a whole node (mutation paths only).
    fn parse(buf: &[u8]) -> Node {
        let b = &buf[HEADER_LEN..];
        let leaf = b[0] == 0;
        let count = u16::from_le_bytes(b[2..4].try_into().unwrap()) as usize;
        let ptr = u64::from_le_bytes(b[4..12].try_into().unwrap());
        if leaf {
            let mut keys = Vec::with_capacity(count);
            let mut rids = Vec::with_capacity(count);
            for i in 0..count {
                let off = NODE_HEADER + i * LEAF_ENTRY;
                keys.push(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()));
                rids.push(Rid::from_bytes(b[off + 8..off + 18].try_into().unwrap()));
            }
            Node::Leaf {
                keys,
                rids,
                next: (ptr != NIL).then_some(ptr),
            }
        } else {
            let mut keys = Vec::with_capacity(count);
            let mut children = Vec::with_capacity(count + 1);
            children.push(ptr); // leftmost child
            for i in 0..count {
                let off = NODE_HEADER + i * INT_ENTRY;
                keys.push(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()));
                children.push(u64::from_le_bytes(b[off + 8..off + 16].try_into().unwrap()));
            }
            Node::Internal { keys, children }
        }
    }

    /// Serialize into a body image of `body_len` bytes (0xFF padded so the
    /// unchanged tail never shows up as a diff).
    fn serialize(&self, body_len: usize, previous: &[u8]) -> Vec<u8> {
        let mut b = previous.to_vec();
        debug_assert_eq!(b.len(), body_len);
        match self {
            Node::Leaf { keys, rids, next } => {
                b[0] = 0;
                b[1] = 0;
                b[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                b[4..12].copy_from_slice(&next.unwrap_or(NIL).to_le_bytes());
                for (i, (k, r)) in keys.iter().zip(rids).enumerate() {
                    let off = NODE_HEADER + i * LEAF_ENTRY;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 18].copy_from_slice(&r.to_bytes());
                }
            }
            Node::Internal { keys, children } => {
                b[0] = 1;
                b[1] = 0;
                b[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                b[4..12].copy_from_slice(&children[0].to_le_bytes());
                for (i, k) in keys.iter().enumerate() {
                    let off = NODE_HEADER + i * INT_ENTRY;
                    b[off..off + 8].copy_from_slice(&k.to_le_bytes());
                    b[off + 8..off + 16].copy_from_slice(&children[i + 1].to_le_bytes());
                }
            }
        }
        b
    }
}

fn body_len(pool: &BufferPool, pid: PageId) -> usize {
    let l = pool.layout_of(pid);
    l.delta_area_offset() - HEADER_LEN
}

/// Max leaf entries for a given body length.
fn leaf_capacity(body: usize) -> usize {
    (body - NODE_HEADER) / LEAF_ENTRY
}

fn internal_capacity(body: usize) -> usize {
    (body - NODE_HEADER) / INT_ENTRY
}

fn read_node(pool: &mut BufferPool, pid: PageId) -> Result<Node> {
    pool.with_page(pid, Node::parse)
}

/// Write a node image back, touching only the changed byte span.
fn write_node(
    pool: &mut BufferPool,
    pid: PageId,
    node: &Node,
    lsn: u64,
    capture: Option<&mut Vec<WriteOp>>,
) -> Result<()> {
    pool.with_page_mut(pid, capture, |pm| {
        let body_len = pm.layout().delta_area_offset() - HEADER_LEN;
        let old = pm.bytes()[HEADER_LEN..HEADER_LEN + body_len].to_vec();
        let new = node.serialize(body_len, &old);
        write_diff_span(pm, HEADER_LEN, &old, &new);
        let mut sp = SlottedPage::new(pm);
        sp.set_lsn(lsn);
    })
}

/// Write only the span between the first and last differing byte.
fn write_diff_span(pm: &mut PageMut<'_>, base: usize, old: &[u8], new: &[u8]) {
    debug_assert_eq!(old.len(), new.len());
    let Some(first) = old.iter().zip(new).position(|(a, b)| a != b) else {
        return;
    };
    let last = old
        .iter()
        .zip(new)
        .rposition(|(a, b)| a != b)
        .expect("diff exists");
    pm.write(base + first, &new[first..=last]);
}

/// Allocate and format a fresh node page from the index region.
fn alloc_node(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    node: &Node,
    lsn: u64,
    mut capture: Option<&mut Vec<WriteOp>>,
) -> Result<PageId> {
    if table.allocated_pages == table.spec.pages {
        return Err(StorageError::TableFull(table.spec.name.clone()));
    }
    let pid = table.page(table.allocated_pages);
    table.allocated_pages += 1;
    pool.new_page(pid)?;
    pool.with_page_mut(pid, capture.as_deref_mut(), |pm| {
        SlottedPage::new(pm).format(pid as u32);
    })?;
    write_node(pool, pid, node, lsn, capture)?;
    Ok(pid)
}

/// Create an empty tree (root = empty leaf).
pub fn create(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    lsn: u64,
    capture: Option<&mut Vec<WriteOp>>,
) -> Result<()> {
    assert!(table.root.is_none(), "index already created");
    let root = alloc_node(
        pool,
        table,
        &Node::Leaf {
            keys: Vec::new(),
            rids: Vec::new(),
            next: None,
        },
        lsn,
        capture,
    )?;
    table.root = Some(root);
    Ok(())
}

/// Descend to the leaf that owns `key`, searching each node in place, and
/// run `at_leaf` over the leaf while it is in hand. Returns the leaf page
/// id and `at_leaf`'s result; `path`, if given, receives the internal
/// pages passed through (root first).
fn descend<R>(
    pool: &mut BufferPool,
    root: PageId,
    key: u64,
    mut path: Option<&mut Vec<PageId>>,
    at_leaf: impl FnOnce(&[u8]) -> R,
) -> Result<(PageId, R)> {
    let mut at_leaf = Some(at_leaf);
    let mut pid = root;
    loop {
        let step = pool.with_page(pid, |b| {
            let node = NodeView::new(b);
            if node.is_leaf() {
                ControlFlow::Break(at_leaf.take().expect("one leaf per descent")(b))
            } else {
                ControlFlow::Continue(node.child_for(key))
            }
        })?;
        match step {
            ControlFlow::Break(r) => return Ok((pid, r)),
            ControlFlow::Continue(child) => {
                if let Some(path) = path.as_deref_mut() {
                    path.push(pid);
                }
                pid = child;
            }
        }
    }
}

/// Point lookup.
pub fn lookup(pool: &mut BufferPool, table: &TableInfo, key: u64) -> Result<Option<Rid>> {
    let Some(root) = table.root else {
        return Ok(None);
    };
    let (_, rid) = descend(pool, root, key, None, |b| NodeView::new(b).find(key))?;
    Ok(rid)
}

/// Insert a key; duplicate keys are rejected (primary-key semantics).
pub fn insert(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    key: u64,
    rid: Rid,
    lsn: u64,
    mut capture: Option<&mut Vec<WriteOp>>,
) -> Result<()> {
    let root = table.root.expect("index not created");
    let mut path = Vec::new();
    let (leaf_pid, leaf) = descend(pool, root, key, Some(&mut path), Node::parse)?;
    let Node::Leaf {
        mut keys,
        mut rids,
        next,
    } = leaf
    else {
        unreachable!("descend ends at a leaf")
    };
    let pos = match keys.binary_search(&key) {
        Ok(_) => return Err(StorageError::DuplicateKey(key)),
        Err(p) => p,
    };
    keys.insert(pos, key);
    rids.insert(pos, rid);

    let cap = leaf_capacity(body_len(pool, leaf_pid));
    if keys.len() <= cap {
        write_node(
            pool,
            leaf_pid,
            &Node::Leaf { keys, rids, next },
            lsn,
            capture,
        )?;
        return Ok(());
    }

    // Leaf split.
    let mid = keys.len() / 2;
    let right_keys = keys.split_off(mid);
    let right_rids = rids.split_off(mid);
    let sep = right_keys[0];
    let right_pid = alloc_node(
        pool,
        table,
        &Node::Leaf {
            keys: right_keys,
            rids: right_rids,
            next,
        },
        lsn,
        capture.as_deref_mut(),
    )?;
    write_node(
        pool,
        leaf_pid,
        &Node::Leaf {
            keys,
            rids,
            next: Some(right_pid),
        },
        lsn,
        capture.as_deref_mut(),
    )?;
    insert_separator(pool, table, path, leaf_pid, sep, right_pid, lsn, capture)
}

/// Propagate a split upward.
#[allow(clippy::too_many_arguments)]
fn insert_separator(
    pool: &mut BufferPool,
    table: &mut TableInfo,
    mut path: Vec<PageId>,
    left: PageId,
    sep: u64,
    right: PageId,
    lsn: u64,
    mut capture: Option<&mut Vec<WriteOp>>,
) -> Result<()> {
    let Some(parent_pid) = path.pop() else {
        // Split reached the root: grow the tree.
        let new_root = alloc_node(
            pool,
            table,
            &Node::Internal {
                keys: vec![sep],
                children: vec![left, right],
            },
            lsn,
            capture,
        )?;
        table.root = Some(new_root);
        return Ok(());
    };
    let Node::Internal {
        mut keys,
        mut children,
    } = read_node(pool, parent_pid)?
    else {
        unreachable!("path contains internals only")
    };
    let pos = keys.partition_point(|&k| k <= sep);
    keys.insert(pos, sep);
    children.insert(pos + 1, right);

    let cap = internal_capacity(body_len(pool, parent_pid));
    if keys.len() <= cap {
        write_node(
            pool,
            parent_pid,
            &Node::Internal { keys, children },
            lsn,
            capture,
        )?;
        return Ok(());
    }

    // Internal split: middle key moves up.
    let mid = keys.len() / 2;
    let up = keys[mid];
    let right_keys = keys.split_off(mid + 1);
    keys.pop(); // `up` leaves this node
    let right_children = children.split_off(mid + 1);
    let right_pid = alloc_node(
        pool,
        table,
        &Node::Internal {
            keys: right_keys,
            children: right_children,
        },
        lsn,
        capture.as_deref_mut(),
    )?;
    write_node(
        pool,
        parent_pid,
        &Node::Internal { keys, children },
        lsn,
        capture.as_deref_mut(),
    )?;
    insert_separator(pool, table, path, parent_pid, up, right_pid, lsn, capture)
}

/// Remove a key. Returns whether it existed. Leaves are never merged —
/// benchmark deletes are rare and sparse leaves stay searchable.
pub fn delete(
    pool: &mut BufferPool,
    table: &TableInfo,
    key: u64,
    lsn: u64,
    capture: Option<&mut Vec<WriteOp>>,
) -> Result<bool> {
    let Some(root) = table.root else {
        return Ok(false);
    };
    // A miss is answered in place; only a hit decodes the leaf.
    let (leaf_pid, leaf) = descend(pool, root, key, None, |b| {
        NodeView::new(b).find(key).map(|_| Node::parse(b))
    })?;
    let Some(Node::Leaf {
        mut keys,
        mut rids,
        next,
    }) = leaf
    else {
        return Ok(false);
    };
    let i = keys.binary_search(&key).expect("found in place");
    keys.remove(i);
    rids.remove(i);
    write_node(
        pool,
        leaf_pid,
        &Node::Leaf { keys, rids, next },
        lsn,
        capture,
    )?;
    Ok(true)
}

/// Visit `(key, rid)` pairs with `lo ≤ key ≤ hi`, in key order.
pub fn range(
    pool: &mut BufferPool,
    table: &TableInfo,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, Rid),
) -> Result<()> {
    let Some(root) = table.root else {
        return Ok(());
    };
    let (_, mut next) = descend(pool, root, lo, None, |b| {
        NodeView::new(b).visit(lo, hi, &mut f)
    })?;
    while let Some(pid) = next {
        next = pool.with_page(pid, |b| NodeView::new(b).visit(lo, hi, &mut f))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, TableSpec};
    use crate::page::standard_layout;
    use ipa_core::NmScheme;
    use ipa_flash::{DeviceConfig, DisturbRates, FlashChip, FlashMode, Geometry};
    use ipa_ftl::{Ftl, FtlConfig, WriteStrategy};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The decode-based search the in-place paths replaced, kept as their
    /// oracle: every node on the path is decoded whole, and the leaf is
    /// read once by the descent and again by the search.
    mod decoded {
        use super::*;

        pub fn descend(
            pool: &mut BufferPool,
            root: PageId,
            key: u64,
        ) -> Result<(Vec<PageId>, PageId)> {
            let mut path = Vec::new();
            let mut pid = root;
            loop {
                let node = read_node(pool, pid)?;
                match node {
                    Node::Leaf { .. } => return Ok((path, pid)),
                    Node::Internal { keys, children } => {
                        path.push(pid);
                        let idx = keys.partition_point(|&k| k <= key);
                        pid = children[idx];
                    }
                }
            }
        }

        pub fn lookup(pool: &mut BufferPool, table: &TableInfo, key: u64) -> Result<Option<Rid>> {
            let Some(root) = table.root else {
                return Ok(None);
            };
            let (_, leaf) = descend(pool, root, key)?;
            let Node::Leaf { keys, rids, .. } = read_node(pool, leaf)? else {
                unreachable!("descend returns a leaf");
            };
            Ok(keys.binary_search(&key).ok().map(|i| rids[i]))
        }

        pub fn range(
            pool: &mut BufferPool,
            table: &TableInfo,
            lo: u64,
            hi: u64,
        ) -> Result<Vec<(u64, Rid)>> {
            let mut out = Vec::new();
            let Some(root) = table.root else {
                return Ok(out);
            };
            let (_, mut leaf_pid) = descend(pool, root, lo)?;
            loop {
                let Node::Leaf { keys, rids, next } = read_node(pool, leaf_pid)? else {
                    unreachable!()
                };
                for (k, r) in keys.iter().zip(&rids) {
                    if *k > hi {
                        return Ok(out);
                    }
                    if *k >= lo {
                        out.push((*k, *r));
                    }
                }
                match next {
                    Some(n) => leaf_pid = n,
                    None => return Ok(out),
                }
            }
        }

        /// Every separator key of the tree, and the tree's height.
        pub fn separators(pool: &mut BufferPool, root: PageId) -> (Vec<u64>, usize) {
            let mut seps = Vec::new();
            let mut level = vec![root];
            let mut height = 1;
            loop {
                let mut below = Vec::new();
                for pid in level {
                    if let Node::Internal { keys, children } = read_node(pool, pid).unwrap() {
                        seps.extend(keys);
                        below.extend(children);
                    }
                }
                if below.is_empty() {
                    return (seps, height);
                }
                height += 1;
                level = below;
            }
        }
    }

    /// In-place `lookup`, `descend` and `range` against the decoded
    /// oracle and the model, for every probe key and range.
    fn check_searches(
        p: &mut BufferPool,
        t: &TableInfo,
        model: &BTreeMap<u64, Rid>,
        keys: &[u64],
        ranges: &[(u64, u64)],
    ) -> std::result::Result<(), TestCaseError> {
        for &key in keys {
            // Each comparison carries the key so a failure names it.
            let found = (key, lookup(p, t, key).unwrap());
            prop_assert_eq!(found, (key, decoded::lookup(p, t, key).unwrap()));
            prop_assert_eq!(found, (key, model.get(&key).copied()));
            if let Some(root) = t.root {
                let mut path = Vec::new();
                let (leaf, ()) = descend(p, root, key, Some(&mut path), |_| ()).unwrap();
                prop_assert_eq!(
                    (key, (path, leaf)),
                    (key, decoded::descend(p, root, key).unwrap())
                );
            }
        }
        for &(lo, hi) in ranges {
            let mut seen = Vec::new();
            range(p, t, lo, hi, |k, r| seen.push((k, r))).unwrap();
            prop_assert_eq!(
                (lo, hi, &seen),
                (lo, hi, &decoded::range(p, t, lo, hi).unwrap())
            );
            let expect: Vec<(u64, Rid)> = model.range(lo..=hi).map(|(&k, &r)| (k, r)).collect();
            prop_assert_eq!((lo, hi, seen), (lo, hi, expect));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// On 2 KiB pages, a tree of three or more levels after random
        /// inserts and deletes answers every in-place search exactly as
        /// the decoded oracle and a `BTreeMap` model do: keys below the
        /// first separator, equal to and next to every separator, above
        /// the last one, random keys, and ranges — and so does the empty
        /// tree it started as.
        #[test]
        fn in_place_search_matches_decoded_oracle_and_model(
            prefill in 7_500usize..8_500,
            gaps in proptest::collection::vec(1u64..5, 97),
            churn in proptest::collection::vec((any::<bool>(), 0u64..25_000), 0..800),
            probes in proptest::collection::vec(0u64..26_000, 64),
            spans in proptest::collection::vec((0u64..26_000, 0u64..3_000), 8),
        ) {
            let mut p = pool();
            let mut t = index(256);
            create(&mut p, &mut t, 1, None).unwrap();
            let mut model = BTreeMap::new();
            check_searches(&mut p, &t, &model, &[0, 7, u64::MAX], &[(0, u64::MAX), (3, 9)])?;

            // Ascending inserts split leaves in half, so this many keys
            // need more leaves than one 2 KiB internal node can hold.
            let mut key = 0;
            for gap in gaps.iter().cycle().take(prefill) {
                key += gap;
                insert(&mut p, &mut t, key, rid_of(key), 2, None).unwrap();
                model.insert(key, rid_of(key));
            }
            for (del, key) in churn {
                if del {
                    let existed = delete(&mut p, &t, key, 3, None).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                } else {
                    match insert(&mut p, &mut t, key, rid_of(key), 3, None) {
                        Ok(()) => prop_assert!(model.insert(key, rid_of(key)).is_none()),
                        Err(StorageError::DuplicateKey(_)) => prop_assert!(model.contains_key(&key)),
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
            }

            let (seps, height) = decoded::separators(&mut p, t.root.unwrap());
            prop_assert!(height >= 3, "tree height {}", height);
            let first = *seps.iter().min().unwrap();
            let last = *model.keys().next_back().unwrap();
            let mut keys = probes;
            keys.extend([0, first - 1, last, last + 1, u64::MAX]);
            for s in seps {
                keys.extend([s - 1, s, s + 1]);
            }
            let mut ranges: Vec<(u64, u64)> = spans.iter().map(|&(lo, len)| (lo, lo + len)).collect();
            ranges.extend([(0, u64::MAX), (0, first), (first, first), (last, u64::MAX)]);
            check_searches(&mut p, &t, &model, &keys, &ranges)?;
        }
    }

    fn pool() -> BufferPool {
        let chip = FlashChip::new(
            DeviceConfig::new(Geometry::new(128, 16, 2048, 64), FlashMode::Slc)
                .with_disturb(DisturbRates::none()),
        );
        let _ = standard_layout(2048, NmScheme::disabled());
        BufferPool::new(
            Box::new(Ftl::new(chip, FtlConfig::traditional())),
            WriteStrategy::Traditional,
            16,
        )
    }

    fn index(pages: u64) -> TableInfo {
        let mut c = Catalog::new();
        let id = c.add(TableSpec::index("idx", pages));
        c.get(id).clone()
    }

    fn rid_of(k: u64) -> Rid {
        Rid::new(k * 7, (k % 100) as u16)
    }

    #[test]
    fn empty_tree_lookup() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1, None).unwrap();
        assert_eq!(lookup(&mut p, &t, 42).unwrap(), None);
    }

    #[test]
    fn insert_and_find_small() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1, None).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            insert(&mut p, &mut t, k, rid_of(k), 2, None).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
        assert_eq!(lookup(&mut p, &t, 2).unwrap(), None);
    }

    #[test]
    fn duplicate_rejected() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1, None).unwrap();
        insert(&mut p, &mut t, 5, rid_of(5), 2, None).unwrap();
        assert!(matches!(
            insert(&mut p, &mut t, 5, rid_of(5), 3, None),
            Err(StorageError::DuplicateKey(5))
        ));
    }

    #[test]
    fn splits_preserve_all_keys() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1, None).unwrap();
        // Enough keys to force multiple leaf and internal splits
        // (leaf capacity ≈ (2048-32-12)/18 ≈ 111).
        let n = 2000u64;
        for k in 0..n {
            // Scatter inserts to stress both append and mid-leaf paths.
            let key = (k * 2_654_435_761) % 100_000;
            let _ = insert(&mut p, &mut t, key, rid_of(key), 2, None);
        }
        let mut seen = Vec::new();
        range(&mut p, &t, 0, u64::MAX, |k, _| seen.push(k)).unwrap();
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(seen, sorted, "range scan must be ordered and unique");
        for &k in &seen {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)), "key {k}");
        }
        assert!(t.allocated_pages > 10, "tree must have split");
    }

    #[test]
    fn sequential_inserts() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1, None).unwrap();
        for k in 0..1000u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2, None).unwrap();
        }
        for k in (0..1000u64).step_by(37) {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
    }

    #[test]
    fn delete_then_miss() {
        let mut p = pool();
        let mut t = index(8);
        create(&mut p, &mut t, 1, None).unwrap();
        for k in 0..50u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2, None).unwrap();
        }
        assert!(delete(&mut p, &t, 25, 3, None).unwrap());
        assert!(!delete(&mut p, &t, 25, 4, None).unwrap());
        assert_eq!(lookup(&mut p, &t, 25).unwrap(), None);
        assert_eq!(lookup(&mut p, &t, 24).unwrap(), Some(rid_of(24)));
    }

    #[test]
    fn range_bounds() {
        let mut p = pool();
        let mut t = index(16);
        create(&mut p, &mut t, 1, None).unwrap();
        for k in (0..300u64).step_by(3) {
            insert(&mut p, &mut t, k, rid_of(k), 2, None).unwrap();
        }
        let mut seen = Vec::new();
        range(&mut p, &t, 10, 20, |k, _| seen.push(k)).unwrap();
        assert_eq!(seen, vec![12, 15, 18]);
    }

    #[test]
    fn survives_cache_drop() {
        let mut p = pool();
        let mut t = index(64);
        create(&mut p, &mut t, 1, None).unwrap();
        for k in 0..500u64 {
            insert(&mut p, &mut t, k, rid_of(k), 2, None).unwrap();
        }
        p.drop_cache().unwrap();
        for k in (0..500u64).step_by(11) {
            assert_eq!(lookup(&mut p, &t, k).unwrap(), Some(rid_of(k)));
        }
    }
}

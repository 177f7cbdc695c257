//! Consistent-hash placement ring.
//!
//! Each shard owns `virtual_nodes` points on a `u64` ring, derived from
//! the cluster seed with [`ln_tensor::rng::seed_from_label`]; a request
//! keys to the first point clockwise of its own hash. Placement is
//! therefore (a) deterministic — same seed, same key, same owner — and
//! (b) stable under membership change: losing a shard only re-homes the
//! keys that pointed at its arcs.
//!
//! The router walks the ring clockwise from the key and takes the first
//! shard that passes its capability filter (alive, active, not
//! partitioned, fits the sequence, can meet the deadline), so the ring
//! yields a full deterministic *preference order*, not just a single
//! owner — the same walk powers hedge-twin selection and reroutes.

use ln_tensor::rng::seed_from_label;

/// A fixed ring of `(point, shard)` pairs in ascending point order.
#[derive(Debug, Clone)]
pub(crate) struct HashRing {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring for `shards` shards with `virtual_nodes` points
    /// each, salted by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `virtual_nodes` is zero.
    pub(crate) fn new(seed: &str, shards: usize, virtual_nodes: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        assert!(virtual_nodes > 0, "each shard needs at least one point");
        let mut points = Vec::with_capacity(shards * virtual_nodes);
        for shard in 0..shards {
            for vnode in 0..virtual_nodes {
                points.push((
                    seed_from_label(&format!("{seed}/ring/{shard}/{vnode}")),
                    shard,
                ));
            }
        }
        // Ties between identical points (astronomically unlikely) break by
        // shard id so the walk order is still total.
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// The hash key of a request, salted by the same cluster seed.
    pub(crate) fn key(seed: &str, id: u64, name: &str) -> u64 {
        seed_from_label(&format!("{seed}/key/{id}/{name}"))
    }

    /// The clockwise walk from `key`: every shard exactly once, in the
    /// order their points are first encountered. The caller applies its
    /// capability filter to this sequence; element 0 is the natural owner.
    pub(crate) fn walk(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|(p, _)| *p < key);
        let mut seen = vec![false; self.shards];
        let mut order = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_a_permutation_and_deterministic() {
        let ring = HashRing::new("test/ring", 8, 32);
        let key = HashRing::key("test/ring", 42, "T1169");
        let a = ring.walk(key);
        let b = ring.walk(key);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..8).collect::<Vec<_>>(),
            "every shard appears once"
        );
    }

    #[test]
    fn different_keys_spread_over_owners() {
        let ring = HashRing::new("test/ring", 4, 64);
        let mut owners = [0usize; 4];
        for id in 0..256 {
            let key = HashRing::key("test/ring", id, "req");
            owners[ring.walk(key)[0]] += 1;
        }
        // With 64 vnodes the spread is rough but no shard may starve.
        assert!(
            owners.iter().all(|&n| n > 0),
            "some shard owns no keys: {owners:?}"
        );
    }

    #[test]
    fn owner_is_stable_when_the_walk_skips_a_dead_shard() {
        let ring = HashRing::new("test/ring", 4, 64);
        // For every key, removing a shard that is NOT the owner must not
        // change the owner (the consistent-hashing property).
        for id in 0..64 {
            let key = HashRing::key("test/ring", id, "req");
            let walk = ring.walk(key);
            let owner = walk[0];
            let dead = walk[3];
            let survivor = walk.iter().copied().find(|&s| s != dead).unwrap();
            assert_eq!(survivor, owner);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_refused() {
        let _ = HashRing::new("x", 0, 4);
    }
}

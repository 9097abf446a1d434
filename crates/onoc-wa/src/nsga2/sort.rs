//! Fast non-dominated sorting (Deb et al., 2000).

use crate::pareto::dominates;

/// Partitions `objectives` (minimisation vectors of equal arity) into
/// Pareto fronts: `front[0]` is the non-dominated set, `front[1]` becomes
/// non-dominated once `front[0]` is removed, and so on.
///
/// Runs Deb's algorithm over the distinct vectors only (`O(M·D²)` for `D`
/// distinct vectors) and expands the duplicates back, so the fronts, and
/// the order inside each front, are exactly those of the original
/// `O(M·N²)` algorithm.
///
/// # Panics
///
/// Panics if the vectors do not all share one arity.
///
/// # Examples
///
/// ```
/// use onoc_wa::nsga2_sort::fast_nondominated_sort;
///
/// let objs = vec![
///     vec![1.0, 4.0], // front 0
///     vec![4.0, 1.0], // front 0
///     vec![2.0, 5.0], // dominated by the first: front 1
/// ];
/// let fronts = fast_nondominated_sort(&objs);
/// assert_eq!(fronts, vec![vec![0, 1], vec![2]]);
/// ```
#[must_use]
pub fn fast_nondominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objectives.len();
    if n == 0 {
        return Vec::new();
    }
    // Group bitwise-equal vectors: the members of a group dominate, and are
    // dominated by, exactly the same points, so Deb's counting runs once
    // per group.
    let bits = |i: usize| objectives[i].iter().map(|x| x.to_bits());
    let mut by_value: Vec<usize> = (0..n).collect();
    by_value.sort_unstable_by(|&a, &b| bits(a).cmp(bits(b)).then(a.cmp(&b)));
    // Group `g` is `by_value[start[g]..start[g + 1]]`, ascending by index.
    let mut start: Vec<usize> = Vec::new();
    let mut group_of = vec![0usize; n];
    for (k, &i) in by_value.iter().enumerate() {
        if k == 0 || !bits(by_value[k - 1]).eq(bits(i)) {
            start.push(k);
        }
        group_of[i] = start.len() - 1;
    }
    let groups = start.len();
    start.push(n);
    let members = |g: usize| &by_value[start[g]..start[g + 1]];
    let value = |g: usize| objectives[members(g)[0]].as_slice();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); groups]; // S_p
    let mut domination_count = vec![0usize; groups]; // n_p, counted in groups
    for g in 0..groups {
        for h in (g + 1)..groups {
            if dominates(value(g), value(h)) {
                dominated_by[g].push(h);
                domination_count[h] += 1;
            } else if dominates(value(h), value(g)) {
                dominated_by[h].push(g);
                domination_count[g] += 1;
            }
        }
    }

    // Deb's dominated-by lists are ascending, so his front k+1 comes out
    // ordered by (position in front k of the member's last dominator,
    // index). Releasing each group of front k at the position of its last
    // member frees every dominated group at exactly that position.
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n)
        .filter(|&p| domination_count[group_of[p]] == 0)
        .collect();
    let mut last_position = vec![0usize; groups];
    while !current.is_empty() {
        for (position, &p) in current.iter().enumerate() {
            last_position[group_of[p]] = position;
        }
        let mut next: Vec<(usize, usize)> = Vec::new();
        for (position, &p) in current.iter().enumerate() {
            let g = group_of[p];
            if last_position[g] != position {
                continue;
            }
            for &h in &dominated_by[g] {
                domination_count[h] -= 1;
                if domination_count[h] == 0 {
                    next.extend(members(h).iter().map(|&q| (position, q)));
                }
            }
        }
        next.sort_unstable();
        let next = next.into_iter().map(|(_, q)| q).collect();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Maps each index to its front rank (0 = best).
#[must_use]
pub fn ranks_from_fronts(fronts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; n];
    for (r, front) in fronts.iter().enumerate() {
        for &i in front {
            ranks[i] = r;
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;
    use proptest::prelude::*;

    /// Deb's original `O(M·N²)` sort: the reference the grouped sort must
    /// reproduce exactly, front order included.
    fn deb_reference(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let n = objectives.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // S_p
        let mut domination_count = vec![0usize; n]; // n_p
        for p in 0..n {
            for q in (p + 1)..n {
                if dominates(&objectives[p], &objectives[q]) {
                    dominated_by[p].push(q);
                    domination_count[q] += 1;
                } else if dominates(&objectives[q], &objectives[p]) {
                    dominated_by[q].push(p);
                    domination_count[p] += 1;
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&p| domination_count[p] == 0).collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &p in &current {
                for &q in &dominated_by[p] {
                    domination_count[q] -= 1;
                    if domination_count[q] == 0 {
                        next.push(q);
                    }
                }
            }
            fronts.push(std::mem::replace(&mut current, next));
        }
        fronts
    }

    #[test]
    fn single_point_is_front_zero() {
        assert_eq!(fast_nondominated_sort(&[vec![1.0, 1.0]]), vec![vec![0]]);
    }

    #[test]
    fn empty_input_gives_no_fronts() {
        assert!(fast_nondominated_sort(&[]).is_empty());
    }

    #[test]
    fn chain_of_dominated_points() {
        let objs = vec![vec![3.0, 3.0], vec![2.0, 2.0], vec![1.0, 1.0]];
        let fronts = fast_nondominated_sort(&objs);
        assert_eq!(fronts, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn equal_points_share_a_front() {
        let objs = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(fast_nondominated_sort(&objs), vec![vec![0, 1]]);
    }

    #[test]
    fn ranks_are_consistent() {
        let objs = vec![vec![1.0, 4.0], vec![4.0, 1.0], vec![2.0, 5.0]];
        let fronts = fast_nondominated_sort(&objs);
        let ranks = ranks_from_fronts(&fronts, objs.len());
        assert_eq!(ranks, vec![0, 0, 1]);
    }

    fn objective_vectors() -> impl Strategy<Value = Vec<Vec<f64>>> {
        proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, 3), 1..40)
    }

    #[test]
    fn duplicates_follow_their_last_dominator() {
        // Front 1 is ordered by the position in front 0 of each member's
        // last dominator, then by index: the duplicates 2 and 4 share
        // theirs (1, at position 1), while 3 is last dominated by 5 (at
        // position 2), so it comes after them despite its lower index.
        let objs = vec![
            vec![0.0, 3.0],
            vec![3.0, 0.0],
            vec![4.0, 1.0],
            vec![1.0, 4.0],
            vec![4.0, 1.0],
            vec![0.0, 3.0],
        ];
        let fronts = fast_nondominated_sort(&objs);
        assert_eq!(fronts, vec![vec![0, 1, 5], vec![2, 4, 3]]);
        assert_eq!(fronts, deb_reference(&objs));
    }

    proptest! {
        /// The grouped sort returns Deb's fronts in Deb's order on
        /// tie-heavy integer grids, with two or three objectives.
        #[test]
        fn matches_deb_on_tied_grids(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..1000, 3), 1..80),
            grid in 1u32..7,
            three in any::<bool>(),
        ) {
            let arity = if three { 3 } else { 2 };
            let objs: Vec<Vec<f64>> = raw
                .iter()
                .map(|v| v[..arity].iter().map(|&x| f64::from(x % grid)).collect())
                .collect();
            prop_assert_eq!(fast_nondominated_sort(&objs), deb_reference(&objs));
        }

        /// The fronts partition the population.
        #[test]
        fn fronts_partition(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let mut seen = vec![false; objs.len()];
            for front in &fronts {
                for &i in front {
                    prop_assert!(!seen[i], "index {i} appears twice");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// Front 0 is mutually non-dominating.
        #[test]
        fn front_zero_nondominated(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let f0 = &fronts[0];
            for &a in f0 {
                for &b in f0 {
                    if a != b {
                        prop_assert!(!dominates(&objs[a], &objs[b]));
                    }
                }
            }
        }

        /// No point dominates any point in an earlier (better) front.
        #[test]
        fn no_cross_front_violations(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let ranks = ranks_from_fronts(&fronts, objs.len());
            for a in 0..objs.len() {
                for b in 0..objs.len() {
                    if dominates(&objs[a], &objs[b]) {
                        prop_assert!(ranks[a] < ranks[b],
                            "dominating point must rank strictly better");
                    }
                }
            }
        }

        /// Every member of front k+1 is dominated by someone in front k.
        #[test]
        fn successive_fronts_are_justified(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            for w in fronts.windows(2) {
                for &q in &w[1] {
                    prop_assert!(
                        w[0].iter().any(|&p| dominates(&objs[p], &objs[q])),
                        "front member {q} has no dominator in the previous front"
                    );
                }
            }
        }
    }
}

//! Per-receiver power-budget breakdown.
//!
//! The spectrum engine ([`crate::SpectrumEngine`]) returns totals; this
//! module decomposes the end-to-end loss of one signal into its physical
//! contributions (Eq. 6 term by term), which is what an architect needs to
//! see to understand *why* a design point costs what it costs.

use onoc_photonics::{MrElement, MrState, WavelengthId};
use onoc_units::Decibels;

use crate::{Direction, NodeId, OnocArchitecture, SpectrumEngine, SpectrumError, Transmission};

/// The loss of one signal decomposed into physical contributions.
///
/// The components always sum to [`PowerBudget::total`] (up to floating-point
/// rounding); a property test enforces this against the spectrum engine's
/// monolithic walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// The transmission this budget belongs to (caller id).
    pub transmission: usize,
    /// The analysed wavelength.
    pub channel: WavelengthId,
    /// Waveguide propagation loss (`LP`, length × Lp).
    pub propagation: Decibels,
    /// Bending loss (`LB`, 90° bends × Lb).
    pub bending: Decibels,
    /// Accumulated OFF-state MR through losses (`Lp0` terms).
    pub off_mr_through: Decibels,
    /// Accumulated ON-state MR through losses (`Lp1` terms, other
    /// receivers' rings crossed on the way).
    pub on_mr_through: Decibels,
    /// The final drop into the photodetector (`Lp1`).
    pub drop: Decibels,
    /// Number of OFF-state MRs crossed.
    pub off_mr_count: usize,
    /// Number of ON-state MRs crossed (excluding the drop ring).
    pub on_mr_count: usize,
}

impl PowerBudget {
    /// Total end-to-end loss (sum of all components).
    #[must_use]
    pub fn total(&self) -> Decibels {
        self.propagation + self.bending + self.off_mr_through + self.on_mr_through + self.drop
    }
}

impl core::fmt::Display for PowerBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "t{} {}: {} = prop {} + bend {} + {}×offMR {} + {}×onMR {} + drop {}",
            self.transmission,
            self.channel,
            self.total(),
            self.propagation,
            self.bending,
            self.off_mr_count,
            self.off_mr_through,
            self.on_mr_count,
            self.on_mr_through,
            self.drop
        )
    }
}

/// Computes the decomposed budget of every receiver in `traffic`.
///
/// Reports appear in traffic order, then channel order (matching
/// [`SpectrumEngine::analyze`]).
///
/// # Errors
///
/// Returns the same [`SpectrumError`] conditions as the spectrum engine
/// (collisions, interceptions, malformed channel sets).
pub fn power_budgets(
    arch: &OnocArchitecture,
    traffic: &[Transmission],
) -> Result<Vec<PowerBudget>, SpectrumError> {
    // Reuse the engine's construction-time validation and receiver map.
    let engine = SpectrumEngine::new(arch, traffic)?;
    let mut budgets = Vec::new();
    for (t_idx, t) in traffic.iter().enumerate() {
        for &channel in t.channels() {
            budgets.push(budget_for(arch, &engine, traffic, t_idx, channel)?);
        }
    }
    Ok(budgets)
}

/// The budgets of a lone one-channel transmission from `src` travelling
/// in `direction`, to every destination along the ring, in one walk.
///
/// Entry `h - 1` is the budget for the destination `h` hops away, and
/// equals [`power_budgets`] of `Transmission::new(0, path, vec![channel])`
/// bit for bit. The walk reads each budget at the arrival node, after the
/// stack prefix the signal crosses before its own ring, and only then
/// crosses the rest of that node's stack on its way on. Every component
/// therefore sees the same additions in the same order as
/// [`power_budgets`], at `O(n · λ)` per source instead of `O(n² · λ)`
/// plus a spectrum engine per destination.
///
/// With no other traffic, every ring the signal crosses is OFF and its
/// own drop ring is ON.
///
/// # Panics
///
/// Panics if `src` is outside the ring or `channel` outside the comb.
#[must_use]
pub fn lone_channel_budgets(
    arch: &OnocArchitecture,
    src: NodeId,
    direction: Direction,
    channel: WavelengthId,
) -> Vec<PowerBudget> {
    let geo = arch.geometry();
    let params = arch.losses();
    let grid = arch.grid();
    let nw = grid.count();
    assert!(
        channel.index() < nw,
        "{channel} outside the {nw}-channel comb"
    );
    let ring = arch.ring();
    let farthest = ring.successor(src, direction.reversed());
    let path = arch.route(src, farthest, direction);
    let drop = MrElement::new(channel, MrState::On).drop_loss(channel, grid, params);
    let mut acc = PowerBudget {
        transmission: 0,
        channel,
        propagation: Decibels::ZERO,
        bending: Decibels::ZERO,
        off_mr_through: Decibels::ZERO,
        on_mr_through: Decibels::ZERO,
        drop: Decibels::ZERO,
        off_mr_count: 0,
        on_mr_count: 0,
    };
    let cross_off = |acc: &mut PowerBudget, stack: std::ops::Range<usize>| {
        for c in stack {
            acc.off_mr_count += 1;
            acc.off_mr_through +=
                MrElement::new(WavelengthId(c), MrState::Off).through_loss(channel, grid, params);
        }
    };
    let mut budgets = Vec::with_capacity(path.hops());
    for segment in path.segments() {
        acc.propagation +=
            params.propagation_per_cm * geo.segment_length(segment.index).to_centimeters().value();
        acc.bending += params.bending_per_90deg * geo.segment_bends(segment.index) as f64;
        cross_off(&mut acc, 0..channel.index());
        budgets.push(PowerBudget { drop, ..acc });
        cross_off(&mut acc, channel.index()..nw);
    }
    budgets
}

fn budget_for(
    arch: &OnocArchitecture,
    engine: &SpectrumEngine<'_>,
    traffic: &[Transmission],
    t_idx: usize,
    channel: WavelengthId,
) -> Result<PowerBudget, SpectrumError> {
    let t = &traffic[t_idx];
    let path = t.path();
    let geo = arch.geometry();
    let params = arch.losses();
    let grid = arch.grid();
    let nw = grid.count();
    let dst = path.dst();
    let direction = path.direction();

    let mut budget = PowerBudget {
        transmission: t.id(),
        channel,
        propagation: Decibels::ZERO,
        bending: Decibels::ZERO,
        off_mr_through: Decibels::ZERO,
        on_mr_through: Decibels::ZERO,
        drop: Decibels::ZERO,
        off_mr_count: 0,
        on_mr_count: 0,
    };

    let nodes: Vec<NodeId> = path.nodes().collect();
    for (segment, arrival) in path.segments().zip(nodes.iter().skip(1)) {
        budget.propagation +=
            params.propagation_per_cm * geo.segment_length(segment.index).to_centimeters().value();
        budget.bending += params.bending_per_90deg * geo.segment_bends(segment.index) as f64;
        let stack_end = if *arrival == dst { channel.index() } else { nw };
        for c in 0..stack_end {
            let ch = WavelengthId(c);
            let element = engine.receiver_element(*arrival, direction, ch);
            match element.state() {
                MrState::On => {
                    if ch == channel {
                        // The engine's own walk reports this precisely.
                        return Err(SpectrumError::ChannelDroppedEnRoute {
                            transmission: t.id(),
                            channel,
                            at: *arrival,
                            intercepted_by: t.id(),
                        });
                    }
                    budget.on_mr_count += 1;
                    budget.on_mr_through += element.through_loss(channel, grid, params);
                }
                MrState::Off => {
                    budget.off_mr_count += 1;
                    budget.off_mr_through += element.through_loss(channel, grid, params);
                }
            }
        }
        if *arrival == dst {
            budget.drop = engine
                .receiver_element(dst, direction, channel)
                .drop_loss(channel, grid, params);
        }
    }
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arch(nw: usize) -> OnocArchitecture {
        OnocArchitecture::paper_architecture(nw)
    }

    fn ch(a: &OnocArchitecture, i: usize) -> WavelengthId {
        a.grid().channel(i).expect("channel in range")
    }

    #[test]
    fn budget_components_sum_to_engine_loss() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, 5)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 2)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let reports = engine.analyze().unwrap();
        let budgets = power_budgets(&a, &traffic).unwrap();
        assert_eq!(reports.len(), budgets.len());
        for (r, b) in reports.iter().zip(&budgets) {
            assert_eq!(r.channel, b.channel);
            assert!(
                (r.path_loss.value() - b.total().value()).abs() < 1e-9,
                "engine {} vs budget {}",
                r.path_loss,
                b.total()
            );
        }
    }

    #[test]
    fn single_hop_budget_by_hand() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let b = &power_budgets(&a, &traffic).unwrap()[0];
        assert!((b.propagation.value() + 0.274 * 0.15).abs() < 1e-12);
        assert_eq!(b.bending, Decibels::ZERO);
        assert_eq!(b.off_mr_count, 0); // channel 0 heads the stack
        assert_eq!(b.on_mr_count, 0);
        assert_eq!(b.drop, Decibels::new(-0.5));
    }

    #[test]
    fn higher_stack_positions_cross_more_rings() {
        let a = arch(8);
        let make = |i: usize| {
            vec![Transmission::new(
                0,
                a.route(NodeId(0), NodeId(1), Direction::Clockwise),
                vec![ch(&a, i)],
            )]
        };
        let low_t = make(0);
        let high_t = make(7);
        let low = &power_budgets(&a, &low_t).unwrap()[0];
        let high = &power_budgets(&a, &high_t).unwrap()[0];
        assert_eq!(low.off_mr_count, 0);
        assert_eq!(high.off_mr_count, 7);
        assert!(high.total() < low.total());
    }

    #[test]
    fn sibling_rings_count_as_on_state() {
        // Two wavelengths of the same transmission: the higher one passes
        // the lower one's ON ring at the shared destination.
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0), ch(&a, 1)],
        )];
        let budgets = power_budgets(&a, &traffic).unwrap();
        assert_eq!(budgets[0].on_mr_count, 0);
        assert_eq!(budgets[1].on_mr_count, 1);
        assert_eq!(budgets[1].on_mr_through, Decibels::new(-0.5));
    }

    #[test]
    fn display_is_informative() {
        let a = arch(4);
        let traffic = vec![Transmission::new(
            3,
            a.route(NodeId(0), NodeId(2), Direction::Clockwise),
            vec![ch(&a, 1)],
        )];
        let b = &power_budgets(&a, &traffic).unwrap()[0];
        let text = b.to_string();
        assert!(text.contains("t3") && text.contains("λ2") && text.contains("drop"));
    }

    /// Compares [`lone_channel_budgets`] with [`power_budgets`] of the
    /// lone transmission at every hop count, bit for bit.
    fn assert_walk_matches_reference(
        a: &OnocArchitecture,
        src: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) {
        let n = a.ring().node_count();
        let walk = lone_channel_budgets(a, src, direction, channel);
        assert_eq!(walk.len(), n - 1);
        let bits = |b: &PowerBudget| {
            [
                b.propagation,
                b.bending,
                b.off_mr_through,
                b.on_mr_through,
                b.drop,
                b.total(),
            ]
            .map(|db| db.value().to_bits())
        };
        let mut dst = src;
        for got in &walk {
            dst = a.ring().successor(dst, direction);
            let traffic = vec![Transmission::new(
                0,
                a.route(src, dst, direction),
                vec![channel],
            )];
            let want = power_budgets(a, &traffic).unwrap().remove(0);
            // `==` on the floats cannot tell -0.0 from 0.0; the bits can.
            assert_eq!(bits(got), bits(&want), "{src}->{dst} {direction} {channel}");
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn lone_channel_walk_covers_every_source_and_direction() {
        // Channel 0 is the one the energy model sizes lasers on.
        let a = arch(8);
        for src in 0..16 {
            for direction in Direction::BOTH {
                assert_walk_matches_reference(&a, NodeId(src), direction, ch(&a, 0));
            }
        }
    }

    proptest! {
        /// For any pair of distances, the budget decomposition always sums
        /// to the engine's loss (the two walks stay in lockstep).
        #[test]
        fn decomposition_matches_engine(
            src in 0usize..16, hops in 1usize..15, chan in 0usize..8,
        ) {
            let a = arch(8);
            let dst = NodeId((src + hops) % 16);
            let traffic = vec![Transmission::new(
                0,
                a.route(NodeId(src), dst, Direction::Clockwise),
                vec![ch(&a, chan)],
            )];
            let engine = SpectrumEngine::new(&a, &traffic).unwrap();
            let report = engine.analyze().unwrap().remove(0);
            let budget = power_budgets(&a, &traffic).unwrap().remove(0);
            prop_assert!((report.path_loss.value() - budget.total().value()).abs() < 1e-9);
        }

        /// The one-walk budgets equal the per-destination reference bit
        /// for bit, at every hop count in both directions.
        #[test]
        fn lone_channel_walk_is_bitwise_power_budgets(src in 0usize..16, chan in 0usize..8) {
            let a = arch(8);
            for direction in Direction::BOTH {
                assert_walk_matches_reference(&a, NodeId(src), direction, ch(&a, chan));
            }
        }
    }
}

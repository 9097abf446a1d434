//! Per-wavelength power walk: signal (Eq. 6), crosstalk (Eq. 7) and path loss.

use onoc_photonics::{MrElement, MrState, SignalNoise, WavelengthId};
use onoc_units::{Decibels, Milliwatts};

use crate::{Direction, NodeId, OnocArchitecture, RingPath};

/// A set of wavelengths travelling together along one path — one
/// application-level communication after wavelength allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    id: usize,
    path: RingPath,
    channels: Vec<WavelengthId>,
}

impl Transmission {
    /// Creates a transmission with caller-chosen `id` (used in reports),
    /// travelling over `path` on the given WDM `channels`.
    ///
    /// Channels are sorted and deduplicated.
    #[must_use]
    pub fn new(id: usize, path: RingPath, mut channels: Vec<WavelengthId>) -> Self {
        channels.sort_unstable();
        channels.dedup();
        Self { id, path, channels }
    }

    /// Caller-chosen identifier.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The path travelled.
    #[must_use]
    pub fn path(&self) -> &RingPath {
        &self.path
    }

    /// The allocated WDM channels (sorted, unique).
    #[must_use]
    pub fn channels(&self) -> &[WavelengthId] {
        &self.channels
    }
}

/// How interferer power is propagated to a victim photodetector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrosstalkModel {
    /// The paper's first-order model (Eq. 7): each co-propagating wavelength
    /// arrives at the destination ONI with its own accumulated path loss and
    /// couples into the victim photodetector through the Lorentzian
    /// `Φ(λ_m, λ_i)` directly.
    #[default]
    PaperFirstOrder,
    /// Element-wise walk: the interferer additionally traverses the
    /// destination ONI's MR stack up to the victim MR, including the `Kp1`
    /// residual attenuation if the interferer was itself dropped at an
    /// earlier stack position. Physically tighter than the paper's model;
    /// kept as an ablation (DESIGN.md, E9).
    Elementwise,
}

impl core::fmt::Display for CrosstalkModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CrosstalkModel::PaperFirstOrder => write!(f, "paper-first-order"),
            CrosstalkModel::Elementwise => write!(f, "elementwise"),
        }
    }
}

/// Errors detected while building or running a [`SpectrumEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpectrumError {
    /// A transmission reserves a channel outside the architecture's comb.
    ChannelOutOfRange {
        /// Transmission id.
        transmission: usize,
        /// Offending channel.
        channel: WavelengthId,
        /// Number of channels in the comb.
        grid_size: usize,
    },
    /// A transmission has no channels, so it cannot carry data.
    NoChannels {
        /// Transmission id.
        transmission: usize,
    },
    /// Two transmissions on the same waveguide want to receive the same
    /// channel at the same ONI.
    ReceiverCollision {
        /// First transmission id.
        first: usize,
        /// Second transmission id.
        second: usize,
        /// The contested channel.
        channel: WavelengthId,
        /// The ONI where both receivers sit.
        at: NodeId,
    },
    /// A signal would be dropped before reaching its destination because an
    /// intermediate ONI receives the same channel — a wavelength-
    /// disjointness violation (§III-D of the paper).
    ChannelDroppedEnRoute {
        /// The transmission losing its signal.
        transmission: usize,
        /// The channel being intercepted.
        channel: WavelengthId,
        /// The intercepting ONI.
        at: NodeId,
        /// The transmission whose receiver intercepts the channel.
        intercepted_by: usize,
    },
}

impl core::fmt::Display for SpectrumError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpectrumError::ChannelOutOfRange {
                transmission,
                channel,
                grid_size,
            } => write!(
                f,
                "transmission {transmission} reserves {channel} outside the {grid_size}-channel comb"
            ),
            SpectrumError::NoChannels { transmission } => {
                write!(f, "transmission {transmission} has no wavelengths")
            }
            SpectrumError::ReceiverCollision {
                first,
                second,
                channel,
                at,
            } => write!(
                f,
                "transmissions {first} and {second} both receive {channel} at {at}"
            ),
            SpectrumError::ChannelDroppedEnRoute {
                transmission,
                channel,
                at,
                intercepted_by,
            } => write!(
                f,
                "transmission {transmission} loses {channel} at {at}: intercepted by transmission {intercepted_by}"
            ),
        }
    }
}

impl std::error::Error for SpectrumError {}

/// The optical state of one photodetector input: received signal, accumulated
/// inter-channel crosstalk and the end-to-end path loss of the signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverReport {
    /// Id of the transmission owning this receiver.
    pub transmission: usize,
    /// The received WDM channel.
    pub channel: WavelengthId,
    /// Signal power at the photodetector (Eq. 6).
    pub signal: Milliwatts,
    /// Total inter-channel crosstalk power (Eq. 7).
    pub crosstalk: Milliwatts,
    /// Total noise: crosstalk plus the laser's residual zero-level `P0`
    /// (Eq. 8 denominator).
    pub noise: Milliwatts,
    /// End-to-end loss of the signal from laser to photodetector; feeds the
    /// energy model.
    pub path_loss: Decibels,
    /// Number of co-propagating wavelengths contributing crosstalk (`M` in
    /// Eq. 7).
    pub interferers: usize,
}

impl ReceiverReport {
    /// The signal/noise pair at this photodetector, ready for SNR and BER
    /// evaluation.
    #[must_use]
    pub fn signal_noise(&self) -> SignalNoise {
        SignalNoise::new(self.signal, self.noise)
    }
}

/// Evaluates the receiver-side optics of a set of concurrent transmissions on
/// one [`OnocArchitecture`].
///
/// The engine walks every allocated wavelength element by element — waveguide
/// segments (propagation + bending loss), intermediate ONI stacks (OFF/ON MR
/// through losses, Eqs. 2 and 4) and the destination stack (drop loss,
/// Eq. 5) — and accumulates the crosstalk every other co-propagating
/// wavelength leaks into each photodetector.
///
/// # Examples
///
/// ```
/// use onoc_topology::{Direction, NodeId, OnocArchitecture, SpectrumEngine, Transmission};
///
/// let arch = OnocArchitecture::paper_architecture(8);
/// let ch = |i| arch.grid().channel(i).unwrap();
/// let traffic = vec![
///     Transmission::new(0, arch.route(NodeId(0), NodeId(3), Direction::Clockwise), vec![ch(0)]),
///     Transmission::new(1, arch.route(NodeId(1), NodeId(3), Direction::Clockwise), vec![ch(1)]),
/// ];
/// let engine = SpectrumEngine::new(&arch, &traffic)?;
/// let reports = engine.analyze()?;
/// // Both receivers sit at node 3 and each sees the other as crosstalk.
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().all(|r| r.interferers == 1));
/// # Ok::<(), onoc_topology::SpectrumError>(())
/// ```
#[derive(Debug)]
pub struct SpectrumEngine<'a> {
    arch: &'a OnocArchitecture,
    traffic: &'a [Transmission],
    model: CrosstalkModel,
    /// `receivers[oni_index(node, direction) · nw + channel]` = index (into
    /// `traffic`) of the transmission whose receiver MR for `channel` at
    /// `node` is ON.
    receivers: Vec<Option<usize>>,
}

/// Every (transmission, channel) pair walked once from its laser to the
/// entry of its destination ONI (see [`SpectrumEngine::analyze`]).
///
/// Slot `first[t] + j` is channel `j` of transmission `t`. Its entry losses
/// sit at `entry[start[slot]..]`: the `k`-th value is the loss at the entry
/// of the node `k + 1` hops downstream, summed in the same order as
/// `loss_to_node_entry`, so a lookup is bit-identical to a fresh walk.
struct Walks {
    first: Vec<usize>,
    start: Vec<usize>,
    entry: Vec<Decibels>,
    /// The first intermediate receiver that drops the slot's signal: its
    /// hop count from the source and the error a walk past it returns.
    intercepted: Vec<Option<(usize, SpectrumError)>>,
}

impl Walks {
    /// Loss of slot `slot` at the entry of the node `hops` hops downstream,
    /// or the interception met strictly before that node.
    fn entry_loss(&self, slot: usize, hops: usize) -> Result<Decibels, SpectrumError> {
        match &self.intercepted[slot] {
            Some((at, err)) if *at < hops => Err(err.clone()),
            _ => Ok(self.entry[self.start[slot] + hops - 1]),
        }
    }
}

/// Dense index of the ONI at `node` on the waveguide of `direction`.
fn oni_index(nodes: usize, node: NodeId, direction: Direction) -> usize {
    match direction {
        Direction::Clockwise => node.0,
        Direction::CounterClockwise => nodes + node.0,
    }
}

impl<'a> SpectrumEngine<'a> {
    /// Builds an engine with the default (paper) crosstalk model.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError`] if a transmission has no channels, uses a
    /// channel outside the comb, or two transmissions collide on a receiver.
    pub fn new(
        arch: &'a OnocArchitecture,
        traffic: &'a [Transmission],
    ) -> Result<Self, SpectrumError> {
        Self::with_model(arch, traffic, CrosstalkModel::default())
    }

    /// Builds an engine with an explicit [`CrosstalkModel`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpectrumEngine::new`].
    pub fn with_model(
        arch: &'a OnocArchitecture,
        traffic: &'a [Transmission],
        model: CrosstalkModel,
    ) -> Result<Self, SpectrumError> {
        let nodes = arch.ring().node_count();
        let nw = arch.grid().count();
        let mut receivers: Vec<Option<usize>> = vec![None; 2 * nodes * nw];
        for (idx, t) in traffic.iter().enumerate() {
            if t.channels().is_empty() {
                return Err(SpectrumError::NoChannels {
                    transmission: t.id(),
                });
            }
            for &ch in t.channels() {
                if ch.index() >= nw {
                    return Err(SpectrumError::ChannelOutOfRange {
                        transmission: t.id(),
                        channel: ch,
                        grid_size: nw,
                    });
                }
                let slot = &mut receivers
                    [oni_index(nodes, t.path().dst(), t.path().direction()) * nw + ch.index()];
                if let Some(prev) = *slot {
                    return Err(SpectrumError::ReceiverCollision {
                        first: traffic[prev].id(),
                        second: t.id(),
                        channel: ch,
                        at: t.path().dst(),
                    });
                }
                *slot = Some(idx);
            }
        }
        Ok(Self {
            arch,
            traffic,
            model,
            receivers,
        })
    }

    /// The crosstalk model in use.
    #[must_use]
    pub fn model(&self) -> CrosstalkModel {
        self.model
    }

    /// The transmissions under analysis.
    #[must_use]
    pub fn traffic(&self) -> &[Transmission] {
        self.traffic
    }

    /// State of the receiver MR for `channel` at `node` on the waveguide of
    /// `direction`, together with the owning transmission index.
    fn receiver_at(
        &self,
        node: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) -> Option<usize> {
        let oni = oni_index(self.arch.ring().node_count(), node, direction);
        self.receivers[oni * self.arch.grid().count() + channel.index()]
    }

    /// The MR element (channel + ON/OFF state) at stack position `channel`
    /// of the ONI at `node` on the waveguide of `direction`, under the
    /// engine's traffic.
    #[must_use]
    pub fn receiver_element(
        &self,
        node: NodeId,
        direction: Direction,
        channel: WavelengthId,
    ) -> MrElement {
        self.mr_element(node, direction, channel)
    }

    fn mr_element(&self, node: NodeId, direction: Direction, channel: WavelengthId) -> MrElement {
        let state = if self.receiver_at(node, direction, channel).is_some() {
            MrState::On
        } else {
            MrState::Off
        };
        MrElement::new(channel, state)
    }

    /// Propagation plus bending loss of one physical segment.
    fn segment_loss(&self, segment: usize) -> Decibels {
        let geo = self.arch.geometry();
        let params = self.arch.losses();
        params.propagation_per_cm * geo.segment_length(segment).to_centimeters().value()
            + params.bending_per_90deg * geo.segment_bends(segment) as f64
    }

    /// Through loss of the full (or prefix of the) receiver MR stack at
    /// `node` for a signal on `signal`, checking for fatal interception.
    ///
    /// MRs inside an ONI are ordered by channel index; `upto` limits the walk
    /// to stack positions `< upto`.
    fn stack_through_loss(
        &self,
        node: NodeId,
        direction: Direction,
        signal: WavelengthId,
        upto: usize,
        carrier: usize,
    ) -> Result<Decibels, SpectrumError> {
        let grid = self.arch.grid();
        let params = self.arch.losses();
        let mut loss = Decibels::ZERO;
        for c in 0..upto {
            let ch = WavelengthId(c);
            if ch == signal {
                if let Some(owner) = self.receiver_at(node, direction, ch) {
                    if owner != carrier {
                        return Err(SpectrumError::ChannelDroppedEnRoute {
                            transmission: self.traffic[carrier].id(),
                            channel: signal,
                            at: node,
                            intercepted_by: self.traffic[owner].id(),
                        });
                    }
                }
            }
            loss += self
                .mr_element(node, direction, ch)
                .through_loss(signal, grid, params);
        }
        Ok(loss)
    }

    /// Loss accumulated by transmission `t_idx`'s wavelength `channel` from
    /// its laser up to the *entry* of `until` (segments and full intermediate
    /// stacks, nothing of `until`'s own stack).
    fn loss_to_node_entry(
        &self,
        t_idx: usize,
        channel: WavelengthId,
        until: NodeId,
    ) -> Result<Decibels, SpectrumError> {
        let t = &self.traffic[t_idx];
        let path = t.path();
        let nw = self.arch.grid().count();
        let mut loss = Decibels::ZERO;
        let nodes: Vec<NodeId> = path.nodes().collect();
        for (segment, arrival) in path.segments().zip(nodes.iter().skip(1)) {
            loss += self.segment_loss(segment.index);
            if *arrival == until {
                return Ok(loss);
            }
            loss += self.stack_through_loss(*arrival, path.direction(), channel, nw, t_idx)?;
        }
        panic!(
            "loss_to_node_entry: {until} is not downstream of {} on {path}",
            path.src()
        );
    }

    /// Walks every (transmission, channel) pair once, recording its loss at
    /// the entry of each node it reaches and its first interception.
    fn walk_all(&self) -> Walks {
        let nw = self.arch.grid().count();
        let nodes = self.arch.ring().node_count();
        // A signal whose MR at a node is OFF sees that node's MR states as
        // the same sequence of through losses whatever its channel, so the
        // full-stack loss is one value per (node, direction).
        let mut off_stack: Vec<Option<Decibels>> = vec![None; 2 * nodes];
        let slots: usize = self.traffic.iter().map(|t| t.channels().len()).sum();
        let mut walks = Walks {
            first: Vec::with_capacity(self.traffic.len()),
            start: Vec::with_capacity(slots),
            entry: Vec::new(),
            intercepted: Vec::with_capacity(slots),
        };
        for (t_idx, t) in self.traffic.iter().enumerate() {
            let path = t.path();
            let direction = path.direction();
            let hops = path.hops();
            let segments: Vec<(Decibels, NodeId)> = path
                .segments()
                .zip(path.nodes().skip(1))
                .map(|(segment, arrival)| (self.segment_loss(segment.index), arrival))
                .collect();
            walks.first.push(walks.start.len());
            for &ch in t.channels() {
                walks.start.push(walks.entry.len());
                let mut loss = Decibels::ZERO;
                let mut intercepted = None;
                for (k, &(segment, arrival)) in segments.iter().enumerate() {
                    loss += segment;
                    walks.entry.push(loss);
                    if k + 1 == hops {
                        break;
                    }
                    let stack = if self.receiver_at(arrival, direction, ch).is_some() {
                        self.stack_through_loss(arrival, direction, ch, nw, t_idx)
                    } else {
                        let cached = &mut off_stack[oni_index(nodes, arrival, direction)];
                        Ok(*cached.get_or_insert_with(|| {
                            self.stack_through_loss(arrival, direction, ch, nw, t_idx)
                                .expect("an OFF receiver cannot intercept")
                        }))
                    };
                    match stack {
                        Ok(stack) => loss += stack,
                        Err(err) => {
                            intercepted = Some((k + 1, err));
                            break;
                        }
                    }
                }
                walks.intercepted.push(intercepted);
            }
        }
        walks
    }

    /// Evaluates one receiver: transmission index `t_idx`, channel `channel`.
    ///
    /// Walks the signal and every interferer from its laser; [`analyze`]
    /// reads the same losses from one shared walk instead.
    ///
    /// [`analyze`]: SpectrumEngine::analyze
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::ChannelDroppedEnRoute`] if the signal (or an
    /// interfering signal) is intercepted before its destination.
    pub fn analyze_receiver(
        &self,
        t_idx: usize,
        channel: WavelengthId,
    ) -> Result<ReceiverReport, SpectrumError> {
        self.receiver_report(t_idx, channel, |o_idx, ch, until| {
            self.loss_to_node_entry(o_idx, ch, until)
        })
    }

    /// One receiver's report, with `entry_loss(o_idx, channel, node)` giving
    /// the loss of a (transmission, channel) pair at the entry of `node`.
    fn receiver_report(
        &self,
        t_idx: usize,
        channel: WavelengthId,
        entry_loss: impl Fn(usize, WavelengthId, NodeId) -> Result<Decibels, SpectrumError>,
    ) -> Result<ReceiverReport, SpectrumError> {
        let t = &self.traffic[t_idx];
        let grid = self.arch.grid();
        let params = self.arch.losses();
        let dst = t.path().dst();
        let direction = t.path().direction();

        // --- Signal walk (Eq. 6) --------------------------------------------
        let mut loss = entry_loss(t_idx, channel, dst)?;
        // Prefix of the destination stack, then the intended drop.
        loss += self.stack_through_loss(dst, direction, channel, channel.index(), t_idx)?;
        loss += self
            .mr_element(dst, direction, channel)
            .drop_loss(channel, grid, params);
        let signal = (self.arch.laser().power_on() + loss).to_milliwatts();

        // --- Crosstalk accumulation (Eq. 7) ---------------------------------
        let mut crosstalk = Milliwatts::ZERO;
        let mut interferers = 0usize;
        let victim_mr = self.mr_element(dst, direction, channel);
        for (o_idx, other) in self.traffic.iter().enumerate() {
            if other.path().direction() != direction || !other.path().reaches_receiver(dst) {
                continue;
            }
            for &ch in other.channels() {
                if o_idx == t_idx && ch == channel {
                    continue;
                }
                let mut o_loss = entry_loss(o_idx, ch, dst)?;
                if self.model == CrosstalkModel::Elementwise {
                    // Continue through the victim ONI's stack up to the
                    // victim MR (this applies Kp1 if `ch` was dropped at an
                    // earlier stack position of the same ONI).
                    o_loss +=
                        self.stack_through_loss(dst, direction, ch, channel.index(), o_idx)?;
                }
                // Lorentzian leakage into the victim photodetector.
                o_loss += victim_mr.drop_loss(ch, grid, params);
                crosstalk += (self.arch.laser().power_on() + o_loss).to_milliwatts();
                interferers += 1;
            }
        }

        let noise = crosstalk + self.arch.laser().power_off().to_milliwatts();
        Ok(ReceiverReport {
            transmission: t.id(),
            channel,
            signal,
            crosstalk,
            noise,
            path_loss: loss,
            interferers,
        })
    }

    /// Evaluates every receiver of every transmission.
    ///
    /// Reports are ordered by traffic position, then channel. Each
    /// (transmission, channel) pair is walked once; every receiver then
    /// reads its signal and interferer losses from that walk. The result,
    /// errors included, equals calling [`analyze_receiver`] on every
    /// receiver in order.
    ///
    /// [`analyze_receiver`]: SpectrumEngine::analyze_receiver
    ///
    /// # Errors
    ///
    /// Returns the first [`SpectrumError`] encountered.
    pub fn analyze(&self) -> Result<Vec<ReceiverReport>, SpectrumError> {
        let walks = self.walk_all();
        let ring = self.arch.ring();
        let entry_loss = |o_idx: usize, ch: WavelengthId, until: NodeId| {
            let path = self.traffic[o_idx].path();
            let slot = walks.first[o_idx]
                + self.traffic[o_idx]
                    .channels()
                    .binary_search(&ch)
                    .expect("walked channels belong to their transmission");
            walks.entry_loss(slot, ring.hops(path.src(), until, path.direction()))
        };
        let mut reports = Vec::new();
        for (t_idx, t) in self.traffic.iter().enumerate() {
            for &ch in t.channels() {
                reports.push(self.receiver_report(t_idx, ch, entry_loss)?);
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_photonics::BerConvention;

    fn arch(nw: usize) -> OnocArchitecture {
        OnocArchitecture::paper_architecture(nw)
    }

    fn ch(a: &OnocArchitecture, i: usize) -> WavelengthId {
        a.grid().channel(i).expect("channel in range")
    }

    #[test]
    fn lone_transmission_has_no_crosstalk() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            7,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 2)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].transmission, 7);
        assert_eq!(r[0].interferers, 0);
        assert_eq!(r[0].crosstalk, Milliwatts::ZERO);
        // Noise floor is exactly the laser zero level.
        assert!((r[0].noise.value() - 1e-3).abs() < 1e-12);
        // Loss is strictly negative but small (a few dB at most here).
        assert!(r[0].path_loss.value() < 0.0 && r[0].path_loss.value() > -3.0);
    }

    #[test]
    fn signal_walk_matches_hand_computation() {
        // One hop 0→1 clockwise, single channel 0, 8-λ comb.
        // Loss = prop(1.5 mm) + 0 bends + dst stack prefix (none, channel 0)
        //        + own drop (Lp1).
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(1), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        let expected = -0.274 * 0.15 - 0.5;
        assert!(
            (r[0].path_loss.value() - expected).abs() < 1e-9,
            "loss = {}, expected {expected}",
            r[0].path_loss
        );
    }

    #[test]
    fn off_state_mrs_of_intermediate_nodes_attenuate() {
        // 0→2 passes the full 8-MR stack of node 1: 8 × Lp0 extra compared
        // with two single-hop transmissions.
        let a = arch(8);
        let direct = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(2), Direction::Clockwise),
            vec![ch(&a, 0)],
        )];
        let engine = SpectrumEngine::new(&a, &direct).unwrap();
        let r = engine.analyze().unwrap();
        let expected = -0.274 * 0.3 - 8.0 * 0.005 - 0.5;
        assert!(
            (r[0].path_loss.value() - expected).abs() < 1e-9,
            "loss = {}",
            r[0].path_loss
        );
    }

    #[test]
    fn sibling_wavelengths_interfere() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 3), ch(&a, 4)],
        )];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert_eq!(r.len(), 2);
        for report in &r {
            assert_eq!(report.interferers, 1);
            assert!(report.crosstalk.value() > 0.0);
        }
    }

    #[test]
    fn adjacent_channels_interfere_more_than_distant_ones() {
        let a = arch(8);
        let make = |i: usize| {
            vec![Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, i)],
            )]
        };
        let near_traffic = make(1);
        let near = SpectrumEngine::new(&a, &near_traffic)
            .unwrap()
            .analyze()
            .unwrap();
        let far_traffic = make(7);
        let far = SpectrumEngine::new(&a, &far_traffic)
            .unwrap()
            .analyze()
            .unwrap();
        assert!(near[0].crosstalk > far[0].crosstalk);
    }

    #[test]
    fn pass_through_traffic_interferes_at_the_victim() {
        // t0: 0→3 on λ1; t1: 1→3 on λ2 — both arrive at node 3.
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 1)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 1));
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(2), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(8), NodeId(10), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 0));
    }

    #[test]
    fn opposite_waveguides_are_isolated() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(5), NodeId(2), Direction::CounterClockwise),
                vec![ch(&a, 1)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let r = engine.analyze().unwrap();
        assert!(r.iter().all(|rep| rep.interferers == 0));
    }

    #[test]
    fn interception_is_detected() {
        // t0 carries λ1 from 0 to 5; t1 receives λ1 at node 2 (en route).
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(5), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(2), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        let err = engine.analyze().unwrap_err();
        assert!(
            matches!(
                err,
                SpectrumError::ChannelDroppedEnRoute {
                    transmission: 0,
                    at: NodeId(2),
                    ..
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn receiver_collision_is_detected_at_construction() {
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0)],
            ),
        ];
        let err = SpectrumEngine::new(&a, &traffic).unwrap_err();
        assert!(matches!(err, SpectrumError::ReceiverCollision { .. }));
    }

    #[test]
    fn empty_channel_set_rejected() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![],
        )];
        assert!(matches!(
            SpectrumEngine::new(&a, &traffic).unwrap_err(),
            SpectrumError::NoChannels { transmission: 0 }
        ));
    }

    #[test]
    fn out_of_range_channel_rejected() {
        let a = arch(4);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![WavelengthId(4)],
        )];
        assert!(matches!(
            SpectrumEngine::new(&a, &traffic).unwrap_err(),
            SpectrumError::ChannelOutOfRange { .. }
        ));
    }

    #[test]
    fn elementwise_model_never_reports_more_crosstalk() {
        let a = arch(8);
        let traffic = vec![Transmission::new(
            0,
            a.route(NodeId(0), NodeId(3), Direction::Clockwise),
            vec![ch(&a, 1), ch(&a, 2), ch(&a, 5)],
        )];
        let paper = SpectrumEngine::with_model(&a, &traffic, CrosstalkModel::PaperFirstOrder)
            .unwrap()
            .analyze()
            .unwrap();
        let element = SpectrumEngine::with_model(&a, &traffic, CrosstalkModel::Elementwise)
            .unwrap()
            .analyze()
            .unwrap();
        for (p, e) in paper.iter().zip(&element) {
            assert!(
                e.crosstalk <= p.crosstalk,
                "paper {p:?} vs elementwise {e:?}"
            );
        }
    }

    #[test]
    fn paper_snr_lands_in_reported_ber_window() {
        // A configuration representative of the paper's experiments should
        // produce log10(BER) in roughly the window of Figs. 6(b)/7.
        let a = arch(8);
        let traffic = vec![
            Transmission::new(
                0,
                a.route(NodeId(0), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 0), ch(&a, 1), ch(&a, 2)],
            ),
            Transmission::new(
                1,
                a.route(NodeId(1), NodeId(3), Direction::Clockwise),
                vec![ch(&a, 4), ch(&a, 5)],
            ),
        ];
        let engine = SpectrumEngine::new(&a, &traffic).unwrap();
        for r in engine.analyze().unwrap() {
            let log_ber = r.signal_noise().log10_ber(BerConvention::PaperDb);
            assert!(
                (-4.2..=-2.5).contains(&log_ber),
                "log BER {log_ber} outside the plausible paper window"
            );
        }
    }

    /// Every field of a report, floating-point values by their bits.
    fn report_bits(r: &ReceiverReport) -> (usize, WavelengthId, [u64; 4], usize) {
        (
            r.transmission,
            r.channel,
            [
                r.signal.value().to_bits(),
                r.crosstalk.value().to_bits(),
                r.noise.value().to_bits(),
                r.path_loss.value().to_bits(),
            ],
            r.interferers,
        )
    }

    /// `analyze()` against `analyze_receiver` called on every receiver in
    /// order: equal reports bit for bit, or the same first error.
    fn assert_walk_once_matches_per_receiver(engine: &SpectrumEngine<'_>) {
        let per_receiver: Result<Vec<ReceiverReport>, SpectrumError> = engine
            .traffic()
            .iter()
            .enumerate()
            .flat_map(|(t_idx, t)| {
                t.channels()
                    .iter()
                    .map(move |&ch| engine.analyze_receiver(t_idx, ch))
            })
            .collect();
        match (engine.analyze(), per_receiver) {
            (Ok(fast), Ok(reference)) => {
                let fast: Vec<_> = fast.iter().map(report_bits).collect();
                let reference: Vec<_> = reference.iter().map(report_bits).collect();
                assert_eq!(fast, reference);
            }
            (fast, reference) => assert_eq!(fast.err(), reference.err()),
        }
    }

    #[test]
    fn walk_once_reports_the_first_interception() {
        let a = arch(8);
        let cw = |id, src, dst, channels: &[usize]| {
            Transmission::new(
                id,
                a.route(NodeId(src), NodeId(dst), Direction::Clockwise),
                channels.iter().map(|&w| ch(&a, w)).collect(),
            )
        };
        let dropped = |transmission, channel, at, intercepted_by| {
            Err(SpectrumError::ChannelDroppedEnRoute {
                transmission,
                channel: WavelengthId(channel),
                at: NodeId(at),
                intercepted_by,
            })
        };
        // The first receiver (0's λ1 at node 3) is clean, but its
        // interferer 1 loses λ0 at node 2 on the way there.
        let in_crosstalk = vec![cw(0, 0, 3, &[1]), cw(1, 0, 5, &[0]), cw(2, 1, 2, &[0])];
        // 1's λ1 reaches node 3 intact, then 2 receives it there: the
        // elementwise model meets that inside node 3's stack while scoring
        // 0's λ2; the paper model only on 1's own signal walk.
        let in_victim_stack = vec![cw(0, 0, 3, &[2]), cw(1, 0, 5, &[1]), cw(2, 2, 3, &[1])];
        for model in [CrosstalkModel::PaperFirstOrder, CrosstalkModel::Elementwise] {
            for (traffic, expected) in [
                (&in_crosstalk, dropped(1, 0, 2, 2)),
                (&in_victim_stack, dropped(1, 1, 3, 2)),
            ] {
                let engine = SpectrumEngine::with_model(&a, traffic, model).unwrap();
                assert_eq!(engine.analyze(), expected, "{model}");
                assert_walk_once_matches_per_receiver(&engine);
            }
        }
    }

    proptest::proptest! {
        /// On the paper architecture at NW ∈ {4, 8, 12}, under both
        /// crosstalk models, random traffic (valid or intercepted en
        /// route) analyses identically through the shared walk and
        /// through the per-receiver walk. `disjoint` deals each channel
        /// to one transmission at most, which rules out interception and
        /// so keeps plenty of valid cases.
        #[test]
        fn walk_once_matches_per_receiver_walk(
            raw in proptest::collection::vec(proptest::collection::vec(0usize..4096, 4), 1..7),
            nw_pick in 0usize..3,
            elementwise in proptest::prelude::any::<bool>(),
            disjoint in proptest::prelude::any::<bool>(),
        ) {
            let nw = [4, 8, 12][nw_pick];
            let a = arch(nw);
            let nodes = a.ring().node_count();
            let traffic: Vec<Transmission> = raw
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    let src = r[0] % nodes;
                    let dst = (src + 1 + r[1] % (nodes - 1)) % nodes;
                    let direction = if r[2] % 2 == 0 {
                        Direction::Clockwise
                    } else {
                        Direction::CounterClockwise
                    };
                    let channels = (0..nw)
                        .filter(|w| (r[3] >> w) & 1 == 1 && (!disjoint || w % raw.len() == id))
                        .map(|w| ch(&a, w))
                        .collect();
                    Transmission::new(id, a.route(NodeId(src), NodeId(dst), direction), channels)
                })
                .collect();
            let model = if elementwise {
                CrosstalkModel::Elementwise
            } else {
                CrosstalkModel::PaperFirstOrder
            };
            let engine = SpectrumEngine::with_model(&a, &traffic, model);
            proptest::prop_assume!(engine.is_ok());
            assert_walk_once_matches_per_receiver(&engine.unwrap());
        }
    }
}

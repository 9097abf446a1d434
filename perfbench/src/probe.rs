//! The benchmark's counting probe: how many facts of each kind a run
//! streams. Attached only in the traced run, so untraced runs keep the
//! program's own probe path.

use onoc_sim::{DropFact, HealFact, MsgRecord, SimProbe, TxFact};
use onoc_topology::NodeId;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    pub offered: u64,
    pub admitted: u64,
    pub started: u64,
    pub completed: u64,
    pub retired: u64,
    pub dropped: u64,
    pub lost: u64,
    /// Re-packs; the serve loop streams each defrag as a heal fact.
    pub heals: u64,
}

impl CountingProbe {
    /// Engine facts of every kind the probe counts.
    pub fn facts(&self) -> u64 {
        self.offered
            + self.admitted
            + self.started
            + self.completed
            + self.retired
            + self.dropped
            + self.lost
            + self.heals
    }
}

impl SimProbe for CountingProbe {
    fn offered(&mut self, _time: u64, _src: NodeId) {
        self.offered += 1;
    }

    fn admitted(&mut self, _now: u64, _stall: u64, _src: NodeId) {
        self.admitted += 1;
    }

    fn started(&mut self, _fact: TxFact) {
        self.started += 1;
    }

    fn completed(&mut self, _fact: TxFact) {
        self.completed += 1;
    }

    fn retired(&mut self, _record: &MsgRecord, _volume_bits: f64, _hops: usize) {
        self.retired += 1;
    }

    fn dropped(&mut self, _fact: DropFact) {
        self.dropped += 1;
    }

    fn lost(&mut self, _record: &MsgRecord, _volume_bits: f64, _attempts: u32) {
        self.lost += 1;
    }

    fn heal(&mut self, _fact: HealFact) {
        self.heals += 1;
    }
}

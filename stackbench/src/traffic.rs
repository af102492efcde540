//! The served traffic: which programs a workload submits, and the seeded
//! schedule of submits (pure data, so equal seeds give equal schedules).

use crate::util::Rng;
use std::collections::HashSet;

/// The kinds of submit in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// 1-4 fresh seeds on a short program at `small_args`.
    Short,
    /// One fresh seed on a long program at paper-scale `args`.
    Long,
    /// A pristine run resumed from a mid-run snapshot built in set-up.
    Warm,
    /// An earlier campaign sent again (served from the dedup cache while
    /// the service still holds its result).
    Repeat,
}

/// The mix, in percent of submits: short, long, warm, repeat.
pub const MIX: [(Kind, u32); 4] = [
    (Kind::Short, 80),
    (Kind::Long, 10),
    (Kind::Warm, 5),
    (Kind::Repeat, 5),
];

/// A warm start resumes after `num / WARM_DENOM` of the pristine run.
pub const WARM_DENOM: u32 = 64;

/// The two clients: fair-share weights 1 and 3.
pub const CLIENTS: [(&str, u32); 2] = [("w1", 1), ("w3", 3)];

/// Jobs each client keeps outstanding in the closed loop (inside the
/// default per-client `queue_cap` of 64).
pub const CLOSED_OUTSTANDING: usize = 32;

#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Seconds after the phase starts when the submit is due (open loop;
    /// 0 in the closed loop, which sends as soon as there is room).
    pub due: f64,
    pub client: usize,
    pub kind: Kind,
    /// Index of the short or long program; for a warm start, of the
    /// short program it resumes.
    pub prog: usize,
    /// Injection seeds (empty for a warm start, which runs pristine).
    pub seeds: Vec<u64>,
    /// Warm starts: the snapshot point, in 1/[`WARM_DENOM`] of the run.
    pub warm_at: u32,
    /// Repeats: index of the submit repeated, in the whole schedule.
    pub repeat_of: Option<usize>,
}

impl Submit {
    /// Jobs the submit creates (a warm start is one pristine job).
    pub fn jobs(&self) -> usize {
        self.seeds.len().max(1)
    }
}

/// The whole seeded schedule of one run: the open-loop submits in due
/// order, then each client's closed-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub open: Vec<Submit>,
    pub closed: [Vec<Submit>; 2],
}

impl Schedule {
    /// Every submit, open loop first, then client 0's and client 1's
    /// closed-loop streams: the indexing `repeat_of` uses.
    pub fn all(&self) -> impl Iterator<Item = &Submit> {
        self.open
            .iter()
            .chain(&self.closed[0])
            .chain(&self.closed[1])
    }
}

/// Draws from a seeded shuffled deck, reshuffling when it runs out, so
/// every stretch of a run sees each value in its share (run-to-run
/// variance comes from order, not from drifting proportions).
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

struct Gen {
    rng: Rng,
    next_seed: u64,
    n_short: usize,
    short: Deck<usize>,
    long: Deck<usize>,
    seeds: Deck<u64>,
    kinds: Deck<Kind>,
    warm_used: HashSet<(usize, u32)>,
}

impl Gen {
    fn draw(&mut self, kind: Kind, client: usize, due: f64, history: &[Submit]) -> Submit {
        let mut s = Submit {
            due,
            client,
            kind,
            prog: 0,
            seeds: Vec::new(),
            warm_at: 0,
            repeat_of: None,
        };
        match kind {
            Kind::Short => {
                s.prog = self.short.draw(&mut self.rng);
                let n = self.seeds.draw(&mut self.rng);
                s.seeds = (0..n).map(|_| self.fresh_seed()).collect();
            }
            Kind::Long => {
                s.prog = self.long.draw(&mut self.rng);
                s.seeds = vec![self.fresh_seed()];
            }
            Kind::Warm => loop {
                let prog = self.rng.below(self.n_short as u64) as usize;
                let at = 1 + self.rng.below(u64::from(WARM_DENOM) - 1) as u32;
                // Distinct snapshots, so a warm start restores rather
                // than hitting the dedup cache (until the pool runs dry).
                if self.warm_used.insert((prog, at))
                    || self.warm_used.len() >= self.n_short * (WARM_DENOM as usize - 1)
                {
                    s.prog = prog;
                    s.warm_at = at;
                    break;
                }
            },
            Kind::Repeat => {
                // Any earlier campaign of this client (of any client when
                // it has none yet). A recent one reads the dedup map or
                // the result cache; one evicted from both runs afresh.
                let campaigns = |mine: bool| -> Vec<usize> {
                    history
                        .iter()
                        .enumerate()
                        .filter(|(_, h)| matches!(h.kind, Kind::Short | Kind::Long))
                        .filter(|(_, h)| !mine || h.client == client)
                        .map(|(i, _)| i)
                        .collect()
                };
                let mut earlier = campaigns(true);
                if earlier.is_empty() {
                    earlier = campaigns(false);
                }
                let of = earlier[self.rng.below(earlier.len() as u64) as usize];
                s.prog = history[of].prog;
                s.seeds = history[of].seeds.clone();
                s.repeat_of = Some(of);
            }
        }
        s
    }

    fn fresh_seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.next_seed
    }

    fn kind(&mut self) -> Kind {
        self.kinds.draw(&mut self.rng)
    }
}

/// Builds the schedule: `open_n` open-loop submits with Poisson arrivals
/// over `open_secs` (arrival times are `open_n` sorted uniform draws,
/// which is a Poisson process conditioned on its count) and exact mix
/// shares in a seeded order; then up to `closed_cap` closed-loop submits
/// per client, with kinds dealt from decks holding the mix's shares.
pub fn schedule(
    seed: u64,
    n_short: usize,
    n_long: usize,
    open_n: usize,
    open_secs: f64,
    closed_cap: usize,
) -> Schedule {
    // One deck of 20 submits holds the mix's shares exactly.
    let block: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, pct)| std::iter::repeat_n(kind, pct as usize / 5))
        .collect();
    let mut g = Gen {
        rng: Rng::new(seed),
        next_seed: Rng::new(seed ^ 0xA5A5).next_u64() >> 24,
        n_short,
        short: Deck::new((0..n_short).collect()),
        long: Deck::new((0..n_long).collect()),
        seeds: Deck::new(vec![1, 2, 3, 4]),
        kinds: Deck::new(block),
        warm_used: HashSet::new(),
    };
    let mut due: Vec<f64> = (0..open_n).map(|_| g.rng.unit() * open_secs).collect();
    due.sort_by(f64::total_cmp);
    let mut kinds = Vec::with_capacity(open_n);
    for (kind, pct) in MIX.iter().skip(1) {
        let n = (open_n * *pct as usize + 50) / 100;
        kinds.extend(std::iter::repeat_n(*kind, n));
    }
    kinds.resize(open_n.max(kinds.len()), Kind::Short);
    kinds.truncate(open_n);
    g.rng.shuffle(&mut kinds);
    // A repeat needs an earlier campaign: move any leading repeat behind
    // the first short submit.
    if let Some(first) = kinds.iter().position(|k| *k == Kind::Short) {
        for i in 0..first {
            if kinds[i] == Kind::Repeat {
                kinds.swap(i, first);
                break;
            }
        }
    }
    let mut all: Vec<Submit> = Vec::new();
    for (kind, t) in kinds.into_iter().zip(due) {
        let client = g.rng.below(2) as usize;
        let s = g.draw(kind, client, t, &all);
        all.push(s);
    }
    let open = all.clone();
    let mut closed: [Vec<Submit>; 2] = [Vec::new(), Vec::new()];
    for (client, stream) in closed.iter_mut().enumerate() {
        for _ in 0..closed_cap {
            let mut kind = g.kind();
            if kind == Kind::Repeat && all.is_empty() {
                kind = Kind::Short;
            }
            let s = g.draw(kind, client, 0.0, &all);
            all.push(s.clone());
            stream.push(s);
        }
    }
    Schedule { open, closed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules() {
        let a = schedule(11, 11, 2, 400, 20.0, 300);
        let b = schedule(11, 11, 2, 400, 20.0, 300);
        let c = schedule(12, 11, 2, 400, 20.0, 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_open_loop_mix_has_exact_shares_and_ordered_arrivals() {
        let s = schedule(3, 5, 1, 1000, 25.0, 10);
        let count = |k| s.open.iter().filter(|x| x.kind == k).count();
        assert_eq!(count(Kind::Short), 800);
        assert_eq!(count(Kind::Long), 100);
        assert_eq!(count(Kind::Warm), 50);
        assert_eq!(count(Kind::Repeat), 50);
        assert!(s.open.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.open.iter().all(|x| (0.0..25.0).contains(&x.due)));
    }

    #[test]
    fn seeds_are_fresh_except_in_repeats() {
        let s = schedule(5, 11, 2, 500, 10.0, 200);
        let all: Vec<&Submit> = s.all().collect();
        let mut seen = HashSet::new();
        for x in &all {
            match x.kind {
                Kind::Repeat => {
                    let of = all[x.repeat_of.expect("repeat target")];
                    assert!(matches!(of.kind, Kind::Short | Kind::Long));
                    assert_eq!(of.seeds, x.seeds);
                }
                Kind::Warm => assert!(x.seeds.is_empty() && x.warm_at > 0),
                _ => {
                    assert!((1..=4).contains(&x.seeds.len()));
                    assert!(x.seeds.iter().all(|sd| seen.insert(*sd)));
                }
            }
        }
    }

    #[test]
    fn repeats_resend_an_earlier_campaign_of_the_same_client() {
        let s = schedule(9, 11, 2, 600, 20.0, 300);
        let all: Vec<&Submit> = s.all().collect();
        let mut oldest_back = 0;
        for (i, x) in all.iter().enumerate() {
            let Some(of) = x.repeat_of else { continue };
            if all[of].client != x.client {
                // Only when the client had no campaign of its own yet.
                assert!(all[..i]
                    .iter()
                    .all(|h| h.client != x.client || !matches!(h.kind, Kind::Short | Kind::Long)));
                continue;
            }
            oldest_back = oldest_back.max(i - of);
        }
        // Drawn from the whole history, not only a recent window: some
        // repeat reaches back past the service's 256 retained jobs.
        assert!(
            oldest_back > 300,
            "oldest repeat {oldest_back} submits back"
        );
    }

    #[test]
    fn repeats_point_backwards() {
        for seed in 0..20 {
            let s = schedule(seed, 4, 1, 60, 3.0, 40);
            for (i, x) in s.all().enumerate() {
                if let Some(of) = x.repeat_of {
                    assert!(of < i, "seed {seed}: submit {i} repeats {of}");
                }
            }
        }
    }
}

//! Per-impression auction core.
//!
//! A pure, allocation-free resolution function: given the standing bids of
//! the participating campaigns, a pricing rule and a reserve, decide the
//! winner and clearing price. Strategic "last look" bidders stand at
//! whatever the caller gave them (under participation pacing they lurk
//! below the reserve) but are allowed a final raise up to their full
//! private value when they would otherwise lose — the marrakesh cheater.
//! All tie-breaks go to the lowest bidder index, so resolution is
//! deterministic and thread-count independent.

use crate::config::Pricing;

/// Price step a first-price last-look sniper adds over the bid it beats
/// (capped at its own value).
const LAST_LOOK_STEP: f64 = 1.01;

/// One eligible campaign's standing in a single impression auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    /// Caller-side attribution index (campaign index); also the tie-break
    /// (lower wins).
    pub bidder: usize,
    /// Standing paced bid per impression, in euros (`value × multiplier`).
    pub amount: f64,
    /// Full private value per impression — the ceiling a last-look raise
    /// may reach.
    pub value: f64,
    /// Whether this bidder plays the last look.
    pub last_look: bool,
}

/// Winner and clearing price of one impression auction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuctionOutcome {
    /// Winning bidder (`Bid::bidder`).
    pub winner: usize,
    /// Price paid per impression, in euros.
    pub price: f64,
    /// Whether the win came from a last-look raise rather than the
    /// standing bids.
    pub sniped: bool,
}

/// Resolves one impression auction. Returns `None` when no standing bid
/// clears the reserve and no last-look raise can.
pub fn resolve(bids: &[Bid], pricing: Pricing, reserve: f64) -> Option<AuctionOutcome> {
    // Best and runner-up standing bids that clear the reserve; ties to the
    // lowest index (strict `>` on a forward scan).
    let mut best: Option<&Bid> = None;
    let mut second = reserve;
    for bid in bids {
        if bid.amount < reserve {
            continue;
        }
        match best {
            Some(b) if bid.amount <= b.amount => second = second.max(bid.amount),
            _ => {
                if let Some(b) = best {
                    second = second.max(b.amount);
                }
                best = Some(bid);
            }
        }
    }

    // Last-look pass: the strongest sniper (highest value, then lowest
    // index) may take the auction from the provisional winner if its full
    // value covers the bid it has to beat.
    let mut sniper: Option<&Bid> = None;
    for bid in bids {
        if !bid.last_look || bid.value < reserve {
            continue;
        }
        if Some(bid.bidder) == best.map(|b| b.bidder) {
            continue; // already winning on the standing bid
        }
        let to_beat = best.map_or(reserve, |b| b.amount);
        if bid.value < to_beat {
            continue;
        }
        if sniper.is_none_or(|s| bid.value > s.value) {
            sniper = Some(bid);
        }
    }

    if let Some(s) = sniper {
        let to_beat = best.map_or(reserve, |b| b.amount);
        let price = match pricing {
            // Pays just above the bid it beats, never beyond its value.
            Pricing::FirstPrice => (to_beat * LAST_LOOK_STEP).min(s.value).max(to_beat),
            // The beaten standing bid *is* the second price.
            Pricing::SecondPrice => to_beat,
        };
        return Some(AuctionOutcome { winner: s.bidder, price, sniped: true });
    }

    best.map(|b| AuctionOutcome {
        winner: b.bidder,
        price: match pricing {
            Pricing::FirstPrice => b.amount,
            Pricing::SecondPrice => second,
        },
        sniped: false,
    })
}

/// The price the *foreground* campaign has to beat at one opportunity: the
/// highest effective willingness among eligible background bidders — a
/// truthful bidder stands at its paced bid, a last-look bidder can raise to
/// full value. `0.0` when nobody is eligible.
pub fn price_to_beat(bids: &[Bid]) -> f64 {
    bids.iter().map(|b| if b.last_look { b.value } else { b.amount }).fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(bidder: usize, amount: f64) -> Bid {
        Bid { bidder, amount, value: amount, last_look: false }
    }

    #[test]
    fn empty_or_under_reserve_clears_nothing() {
        assert_eq!(resolve(&[], Pricing::FirstPrice, 0.001), None);
        assert_eq!(resolve(&[bid(0, 0.0005)], Pricing::SecondPrice, 0.001), None);
    }

    #[test]
    fn first_price_pays_own_bid() {
        let out = resolve(&[bid(0, 0.002), bid(1, 0.005)], Pricing::FirstPrice, 0.001).unwrap();
        assert_eq!(out.winner, 1);
        assert!((out.price - 0.005).abs() < 1e-12);
        assert!(!out.sniped);
    }

    #[test]
    fn second_price_pays_runner_up_floored_at_reserve() {
        let out = resolve(&[bid(0, 0.002), bid(1, 0.005)], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 1);
        assert!((out.price - 0.002).abs() < 1e-12);
        // Sole bidder pays the reserve.
        let solo = resolve(&[bid(3, 0.004)], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(solo.winner, 3);
        assert!((solo.price - 0.001).abs() < 1e-12);
    }

    #[test]
    fn ties_go_to_the_lowest_index() {
        let out = resolve(&[bid(2, 0.004), bid(5, 0.004)], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 2);
        assert!((out.price - 0.004).abs() < 1e-12);
    }

    #[test]
    fn last_look_snipes_when_value_covers_the_standing_winner() {
        // Paced to 0.001 but worth 0.01: the sniper beats the 0.006 leader.
        let sniper = Bid { bidder: 7, amount: 0.001, value: 0.01, last_look: true };
        let field = [bid(0, 0.006), bid(1, 0.003), sniper];
        let second = resolve(&field, Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(second.winner, 7);
        assert!(second.sniped);
        assert!((second.price - 0.006).abs() < 1e-12, "pays the beaten bid");
        let first = resolve(&field, Pricing::FirstPrice, 0.001).unwrap();
        assert_eq!(first.winner, 7);
        assert!((first.price - 0.006 * LAST_LOOK_STEP).abs() < 1e-12, "pays just above");
    }

    #[test]
    fn last_look_does_not_snipe_beyond_its_value() {
        let sniper = Bid { bidder: 7, amount: 0.001, value: 0.004, last_look: true };
        let out = resolve(&[bid(0, 0.006), sniper], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 0);
        assert!(!out.sniped);
    }

    #[test]
    fn winning_last_looker_keeps_its_standing_win() {
        // Already the standing leader: no snipe flag, normal pricing.
        let leader = Bid { bidder: 0, amount: 0.006, value: 0.02, last_look: true };
        let out = resolve(&[leader, bid(1, 0.002)], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 0);
        assert!(!out.sniped);
        assert!((out.price - 0.002).abs() < 1e-12);
    }

    #[test]
    fn sniper_can_rescue_an_auction_nobody_clears() {
        // No standing bid clears the reserve, but a last-looker's value
        // does: it takes the impression at the reserve.
        let sniper = Bid { bidder: 4, amount: 0.0002, value: 0.009, last_look: true };
        let out = resolve(&[bid(0, 0.0004), sniper], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 4);
        assert!(out.sniped);
        assert!((out.price - 0.001).abs() < 1e-12);
    }

    #[test]
    fn strongest_sniper_wins_among_several() {
        let a = Bid { bidder: 3, amount: 0.001, value: 0.008, last_look: true };
        let b = Bid { bidder: 9, amount: 0.001, value: 0.012, last_look: true };
        let out = resolve(&[bid(0, 0.005), a, b], Pricing::SecondPrice, 0.001).unwrap();
        assert_eq!(out.winner, 9);
    }

    #[test]
    fn price_to_beat_uses_values_for_snipers() {
        let field =
            [bid(0, 0.002), Bid { bidder: 1, amount: 0.001, value: 0.015, last_look: true }];
        assert!((price_to_beat(&field) - 0.015).abs() < 1e-12);
        assert_eq!(price_to_beat(&[]), 0.0);
    }
}

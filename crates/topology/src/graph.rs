//! Tier-graph specification: names, sizes, fan-out degrees, work factors.

use std::fmt;
use std::str::FromStr;

/// One tier of a multi-tier service.
#[derive(Clone, Debug, PartialEq)]
pub struct TierSpec {
    /// Tier name; server names are `{name}{index}` (`fe0`, `fe1`, ...).
    pub name: String,
    /// Number of servers in the tier (shards a request may land on).
    pub servers: usize,
    /// Children spawned into this tier per completed parent request in the
    /// previous tier. The first tier always has fan-out 1 (the client
    /// request itself).
    pub fanout: usize,
    /// Mean request size in this tier relative to the base request size.
    pub work: f64,
}

/// A parsed multi-tier topology, e.g. `fe[2] -> app[4]*2 -> storage[3]`.
///
/// Grammar per tier: `name[servers]` followed by an optional `*fanout`
/// (children per parent request; disallowed on the first tier) and an
/// optional `@work` (relative mean request size). Tiers are joined with
/// `->`. `Display` round-trips the parsed form.
///
/// # Example
///
/// ```
/// use topology::TierGraph;
/// let g: TierGraph = "fe[2] -> app[4]*2 -> storage[3]*2@2.5".parse().unwrap();
/// assert_eq!(g.n_tiers(), 3);
/// assert_eq!(g.server_names().len(), 9);
/// assert_eq!(g.tiers()[2].fanout, 2);
/// assert_eq!(g.to_string().parse::<TierGraph>().unwrap(), g);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TierGraph {
    tiers: Vec<TierSpec>,
}

impl TierGraph {
    /// Builds a graph from explicit tier specs, validating them.
    pub fn new(tiers: Vec<TierSpec>) -> Result<Self, String> {
        let g = TierGraph { tiers };
        g.validate()?;
        Ok(g)
    }

    /// The tiers in request-flow order (tier 0 receives client requests).
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Fan-out degree per tier (tier 0 is always 1).
    pub fn fanouts(&self) -> Vec<usize> {
        self.tiers.iter().map(|t| t.fanout).collect()
    }

    /// Server names in tier order: `fe0, fe1, app0, ...`.
    pub fn server_names(&self) -> Vec<String> {
        self.tiers
            .iter()
            .flat_map(|t| (0..t.servers).map(move |i| format!("{}{i}", t.name)))
            .collect()
    }

    /// The tier a server name belongs to, by stripping the trailing index.
    ///
    /// Returns `None` for names that do not match any tier.
    pub fn tier_of(&self, server: &str) -> Option<usize> {
        let prefix = server.trim_end_matches(|c: char| c.is_ascii_digit());
        if prefix.len() == server.len() {
            return None; // no index suffix
        }
        self.tiers.iter().position(|t| t.name == prefix)
    }

    /// Checks structural invariants; `new` and `FromStr` call this.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("tier graph needs at least one tier".into());
        }
        if self.tiers.len() > u8::MAX as usize {
            return Err(format!("too many tiers ({})", self.tiers.len()));
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!("bad tier name {:?}", t.name));
            }
            if t.name.ends_with(|c: char| c.is_ascii_digit()) {
                // Server names append a numeric index; a digit-final tier
                // name would make `tier_of` ambiguous.
                return Err(format!("tier name {:?} must not end in a digit", t.name));
            }
            if t.servers == 0 {
                return Err(format!("tier {:?} has zero servers", t.name));
            }
            if t.fanout == 0 || (i == 0 && t.fanout != 1) {
                return Err(format!(
                    "tier {:?}: fan-out {} invalid (first tier must be 1, later tiers >= 1)",
                    t.name, t.fanout
                ));
            }
            if t.work <= 0.0 || !t.work.is_finite() {
                return Err(format!("tier {:?}: work factor {} invalid", t.name, t.work));
            }
        }
        let mut names: Vec<&str> = self.tiers.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.tiers.len() {
            return Err("duplicate tier names".into());
        }
        Ok(())
    }
}

impl fmt::Display for TierGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{}[{}]", t.name, t.servers)?;
            if t.fanout != 1 {
                write!(f, "*{}", t.fanout)?;
            }
            if t.work != 1.0 {
                write!(f, "@{}", t.work)?;
            }
        }
        Ok(())
    }
}

impl FromStr for TierGraph {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tiers = Vec::new();
        for (i, part) in s.split("->").enumerate() {
            let part = part.trim();
            let open = part
                .find('[')
                .ok_or_else(|| format!("tier {part:?}: missing [servers]"))?;
            let close = part
                .find(']')
                .ok_or_else(|| format!("tier {part:?}: missing ]"))?;
            if close < open {
                return Err(format!("tier {part:?}: ] before ["));
            }
            let name = part[..open].trim().to_string();
            let servers: usize = part[open + 1..close]
                .trim()
                .parse()
                .map_err(|e| format!("tier {part:?}: bad server count: {e}"))?;
            let mut rest = part[close + 1..].trim();
            let mut fanout = 1usize;
            let mut work = 1.0f64;
            if let Some(r) = rest.strip_prefix('*') {
                if i == 0 {
                    return Err(format!("tier {part:?}: first tier cannot take *fanout"));
                }
                let end = r.find('@').unwrap_or(r.len());
                fanout = r[..end]
                    .trim()
                    .parse()
                    .map_err(|e| format!("tier {part:?}: bad fan-out: {e}"))?;
                rest = r[end..].trim();
            }
            if let Some(r) = rest.strip_prefix('@') {
                work = r
                    .trim()
                    .parse()
                    .map_err(|e| format!("tier {part:?}: bad work factor: {e}"))?;
                rest = "";
            }
            if !rest.is_empty() {
                return Err(format!("tier {part:?}: trailing junk {rest:?}"));
            }
            tiers.push(TierSpec {
                name,
                servers,
                fanout,
                work,
            });
        }
        TierGraph::new(tiers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_chain() {
        let g: TierGraph = "fe[2]->app[4]*2->storage[3]".parse().unwrap();
        assert_eq!(g.n_tiers(), 3);
        assert_eq!(g.tiers()[0].fanout, 1);
        assert_eq!(g.tiers()[1].fanout, 2);
        assert_eq!(g.server_names().len(), 9);
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "fe[1]",
            "fe[2] -> app[4]",
            "fe[2] -> app[4]*2 -> storage[3]*3@2.5",
            "a[1] -> b[2]@0.5",
        ] {
            let g: TierGraph = s.parse().unwrap();
            let again: TierGraph = g.to_string().parse().unwrap();
            assert_eq!(g, again, "{s}");
        }
    }

    #[test]
    fn server_names_and_tier_of() {
        let g: TierGraph = "fe[2] -> store[3]*2".parse().unwrap();
        assert_eq!(
            g.server_names(),
            ["fe0", "fe1", "store0", "store1", "store2"]
        );
        assert_eq!(g.tier_of("fe1"), Some(0));
        assert_eq!(g.tier_of("store12"), Some(1));
        assert_eq!(g.tier_of("store"), None);
        assert_eq!(g.tier_of("web0"), None);
    }

    #[test]
    fn rejects_bad_specs() {
        for s in [
            "",
            "fe",
            "fe[0]",
            "fe[2]*2",            // fan-out on first tier
            "fe[2] -> app[3]*0",  // zero fan-out
            "fe[2] -> fe[3]",     // duplicate name
            "t1[2] -> app[3]",    // digit-final name
            "fe[2] -> app[3]@-1", // negative work
            "fe[2]x -> app[3]",   // trailing junk
        ] {
            assert!(s.parse::<TierGraph>().is_err(), "{s:?} should fail");
        }
    }
}

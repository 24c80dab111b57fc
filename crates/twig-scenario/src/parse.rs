//! The `.scn` parser.
//!
//! The grammar is line-oriented: one record per line, tokens separated by
//! whitespace, strings double-quoted (`\"` and `\\` escapes), `#` starting
//! a comment. Top-level records are scalar fields (`seed`, `epochs`, ...),
//! `assert` lines, and sections (`server`, `cluster`, `service`, `faults`,
//! `timing`, `cluster_faults`, `federate`) closed by a bare `end`. The parser accepts
//! flexible whitespace and comments; [`crate::emit`] produces the one
//! canonical form, so `emit(parse(emit(s))) == emit(s)` for every
//! scenario and corpus files authored canonically round-trip
//! byte-identically.
//!
//! `parse` validates semantics too ([`Scenario::validate`]): a returned
//! scenario is ready to run.

use crate::model::{
    Assertion, ClusterFaultSection, FaultSection, FederateSection, Scenario, ServiceDef,
    SpecSource, TimingSection, Topology,
};
use crate::ScenarioError;
use twig_cluster::{
    ByzantineFlavor, ClusterEvent, ClusterFaultConfig, FedEvent, FedFaultConfig, FedScripted,
    ScriptedEvent,
};
use twig_sim::{FaultConfig, LoadGenerator, SimError, TimingFaultConfig};
use twig_stats::fields::{Kind, Row, Value};

/// One token: a bare word or a quoted string.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Str(String),
}

impl Token {
    fn text(&self) -> &str {
        match self {
            Token::Word(s) | Token::Str(s) => s,
        }
    }
}

/// Parses and validates a scenario from its text form.
///
/// # Errors
///
/// Returns the precise [`ScenarioError`]: `Parse`/`UnknownKey`/`Duplicate`
/// with the offending line, `Truncated` for input that ends mid-construct,
/// or `Invalid` for semantic violations.
///
/// # Examples
///
/// ```
/// let text = "scenario \"demo\"\nseed 1\nepochs 10\nmeasure 5\n\n\
///             server\n  cores 8\n  dvfs 1200 100 7\nend\n\n\
///             service \"masstree\"\n  spec catalog masstree\n  load fixed 0.5\nend\n\n\
///             assert qos_floor all 0\n";
/// let s = twig_scenario::parse(text).unwrap();
/// assert_eq!(s.name, "demo");
/// assert_eq!(twig_scenario::emit(&s), text.replace("             ", ""));
/// ```
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let lines = tokenize(text)?;
    let mut it = lines.into_iter().peekable();

    // First record must be `scenario "<name>"`.
    let (line, toks) = it.next().ok_or_else(|| ScenarioError::Truncated {
        detail: "empty input, expected `scenario \"<name>\"`".into(),
    })?;
    if toks[0].text() != "scenario" {
        return Err(parse_err(
            line,
            "first record must be `scenario \"<name>\"`",
        ));
    }
    let name = one_str(line, "scenario", &toks)?;

    let mut desc: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut epochs: Option<u64> = None;
    let mut measure: Option<u64> = None;
    let mut warmup: Option<u64> = None;
    let mut segments: Option<u64> = None;
    let mut topology: Option<Topology> = None;
    let mut services: Vec<ServiceDef> = Vec::new();
    let mut faults: Option<FaultSection> = None;
    let mut timing: Option<TimingSection> = None;
    let mut cluster_faults: Option<ClusterFaultSection> = None;
    let mut federate: Option<FederateSection> = None;
    let mut asserts: Vec<Assertion> = Vec::new();

    while let Some((line, toks)) = it.next() {
        let key = toks[0].text();
        match key {
            "desc" => set_once(line, "desc", &mut desc, one_str(line, "desc", &toks)?)?,
            "seed" => set_once(line, "seed", &mut seed, one_u64(line, "seed", &toks)?)?,
            "epochs" => set_once(line, "epochs", &mut epochs, one_u64(line, "epochs", &toks)?)?,
            "measure" => set_once(
                line,
                "measure",
                &mut measure,
                one_u64(line, "measure", &toks)?,
            )?,
            "warmup" => set_once(line, "warmup", &mut warmup, one_u64(line, "warmup", &toks)?)?,
            "segments" => set_once(
                line,
                "segments",
                &mut segments,
                one_u64(line, "segments", &toks)?,
            )?,
            "server" | "cluster" => {
                let body = open_section(&mut it, line, &toks, topology.is_some())?;
                topology = Some(if key == "server" {
                    parse_server(body)?
                } else {
                    parse_cluster(body)?
                });
            }
            "service" => {
                let id = one_str(line, "service", &toks)?;
                let body = section_body(&mut it, "service")?;
                services.push(parse_service(id, body)?);
            }
            "faults" => {
                let body = open_section(&mut it, line, &toks, faults.is_some())?;
                let (seed, (), config) =
                    keyed_section(key, body, &[], FaultConfig::FIELDS, no_script)?;
                faults = Some(FaultSection { seed, config });
            }
            "timing" => {
                let body = open_section(&mut it, line, &toks, timing.is_some())?;
                let (seed, (), config) =
                    keyed_section(key, body, &[], TimingFaultConfig::FIELDS, no_script)?;
                timing = Some(TimingSection { seed, config });
            }
            "cluster_faults" => {
                let body = open_section(&mut it, line, &toks, cluster_faults.is_some())?;
                let rows = ClusterFaultConfig::FIELDS;
                let (seed, (), config) = keyed_section(key, body, &[], rows, |line, toks, c| {
                    c.scripted.push(parse_scripted(line, toks)?);
                    Ok(())
                })?;
                cluster_faults = Some(ClusterFaultSection { seed, config });
            }
            "federate" => {
                let body = open_section(&mut it, line, &toks, federate.is_some())?;
                let (knobs, rows) = (FederateSection::KNOBS, FedFaultConfig::FIELDS);
                let (seed, knobs, config) =
                    keyed_section(key, body, knobs, rows, |line, toks, c| {
                        c.scripted.push(parse_fed_scripted(line, toks)?);
                        Ok(())
                    })?;
                federate = Some(FederateSection {
                    seed,
                    period: knobs.round_period,
                    quorum: knobs.min_quorum,
                    timeout: knobs.collect_timeout,
                    config,
                });
            }
            "assert" => asserts.push(parse_assert(line, &toks)?),
            "end" => return Err(parse_err(line, "`end` without an open section")),
            _ => {
                return Err(ScenarioError::UnknownKey {
                    line,
                    key: key.to_string(),
                })
            }
        }
    }

    let missing = |what: &str| ScenarioError::Truncated {
        detail: format!("missing required `{what}`"),
    };
    let scenario = Scenario {
        name,
        desc: desc.unwrap_or_default(),
        seed: seed.ok_or_else(|| missing("seed"))?,
        epochs: epochs.ok_or_else(|| missing("epochs"))?,
        measure: measure.ok_or_else(|| missing("measure"))?,
        warmup: warmup.unwrap_or(0),
        segments: segments.unwrap_or(1),
        topology: topology.ok_or_else(|| missing("server` or `cluster"))?,
        services,
        faults,
        timing,
        cluster_faults,
        federate,
        asserts,
    };
    scenario.validate()?;
    Ok(scenario)
}

/// Splits the text into non-empty token lines, stripping comments.
fn tokenize(text: &str) -> Result<Vec<(usize, Vec<Token>)>, ScenarioError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let mut toks = Vec::new();
        let mut chars = raw.chars().peekable();
        loop {
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
            match chars.peek() {
                None => break,
                Some('#') => break,
                Some('"') => {
                    chars.next();
                    let mut s = String::new();
                    loop {
                        match chars.next() {
                            None => {
                                return Err(parse_err(line, "unterminated string literal"));
                            }
                            Some('"') => break,
                            Some('\\') => match chars.next() {
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                other => {
                                    return Err(parse_err(
                                        line,
                                        format!("bad string escape `\\{}`", fmt_opt_char(other)),
                                    ));
                                }
                            },
                            Some(c) => s.push(c),
                        }
                    }
                    toks.push(Token::Str(s));
                }
                Some(_) => {
                    let mut w = String::new();
                    while matches!(chars.peek(), Some(c) if !c.is_whitespace() && *c != '#' && *c != '"')
                    {
                        w.push(chars.next().unwrap());
                    }
                    toks.push(Token::Word(w));
                }
            }
        }
        if !toks.is_empty() {
            out.push((line, toks));
        }
    }
    Ok(out)
}

fn fmt_opt_char(c: Option<char>) -> String {
    c.map(String::from).unwrap_or_else(|| "<eol>".into())
}

fn parse_err(line: usize, detail: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse {
        line,
        detail: detail.into(),
    }
}

fn sim_err(line: usize, e: SimError) -> ScenarioError {
    parse_err(line, e.to_string())
}

fn set_once<T>(
    line: usize,
    key: &str,
    slot: &mut Option<T>,
    value: T,
) -> Result<(), ScenarioError> {
    if slot.is_some() {
        return Err(ScenarioError::Duplicate {
            line,
            key: key.to_string(),
        });
    }
    *slot = Some(value);
    Ok(())
}

fn expect_arity(line: usize, toks: &[Token], n: usize) -> Result<(), ScenarioError> {
    if toks.len() != n {
        return Err(parse_err(
            line,
            format!(
                "`{}` takes {} argument(s), got {}",
                toks[0].text(),
                n - 1,
                toks.len() - 1
            ),
        ));
    }
    Ok(())
}

fn one_str(line: usize, key: &str, toks: &[Token]) -> Result<String, ScenarioError> {
    expect_arity(line, toks, 2)?;
    match &toks[1] {
        Token::Str(s) => Ok(s.clone()),
        Token::Word(_) => Err(parse_err(line, format!("`{key}` takes a quoted string"))),
    }
}

fn num<T: std::str::FromStr>(line: usize, tok: &Token) -> Result<T, ScenarioError> {
    match tok {
        Token::Word(w) => w
            .parse::<T>()
            .map_err(|_| parse_err(line, format!("bad number `{w}`"))),
        Token::Str(s) => Err(parse_err(line, format!("expected a number, got \"{s}\""))),
    }
}

fn one_u64(line: usize, key: &str, toks: &[Token]) -> Result<u64, ScenarioError> {
    expect_arity(line, toks, 2)?;
    let _ = key;
    num(line, &toks[1])
}

fn args<const N: usize>(line: usize, toks: &[Token]) -> Result<[&Token; N], ScenarioError> {
    expect_arity(line, toks, N + 1)?;
    let mut it = toks[1..].iter();
    Ok(std::array::from_fn(|_| it.next().expect("arity checked")))
}

/// Pulls records until the matching bare `end`.
fn section_body(
    it: &mut std::iter::Peekable<std::vec::IntoIter<(usize, Vec<Token>)>>,
    what: &str,
) -> Result<Vec<(usize, Vec<Token>)>, ScenarioError> {
    let mut body = Vec::new();
    for (line, toks) in it.by_ref() {
        if toks.len() == 1 && toks[0].text() == "end" {
            return Ok(body);
        }
        body.push((line, toks));
    }
    Err(ScenarioError::Truncated {
        detail: format!("`{what}` section not closed by `end`"),
    })
}

/// Opens a section that may appear once: rejects a second one and any
/// argument after the section word, then pulls the body.
fn open_section(
    it: &mut std::iter::Peekable<std::vec::IntoIter<(usize, Vec<Token>)>>,
    line: usize,
    toks: &[Token],
    already: bool,
) -> Result<Vec<(usize, Vec<Token>)>, ScenarioError> {
    let key = toks[0].text();
    if already {
        return Err(ScenarioError::Duplicate {
            line,
            key: key.to_string(),
        });
    }
    expect_arity(line, toks, 1)?;
    section_body(it, key)
}

fn parse_server(body: Vec<(usize, Vec<Token>)>) -> Result<Topology, ScenarioError> {
    let mut cores: Option<usize> = None;
    let mut dvfs: Option<(u32, u32, usize)> = None;
    for (line, toks) in body {
        match toks[0].text() {
            "cores" => {
                expect_arity(line, &toks, 2)?;
                set_once(line, "cores", &mut cores, num(line, &toks[1])?)?;
            }
            "dvfs" => {
                let [a, b, c] = args::<3>(line, &toks)?;
                set_once(
                    line,
                    "dvfs",
                    &mut dvfs,
                    (num(line, a)?, num(line, b)?, num(line, c)?),
                )?;
            }
            key => {
                return Err(ScenarioError::UnknownKey {
                    line,
                    key: key.to_string(),
                })
            }
        }
    }
    let missing = |what: &str| ScenarioError::Truncated {
        detail: format!("server section missing `{what}`"),
    };
    Ok(Topology::Server {
        cores: cores.ok_or_else(|| missing("cores"))?,
        dvfs: dvfs.ok_or_else(|| missing("dvfs"))?,
    })
}

fn parse_cluster(body: Vec<(usize, Vec<Token>)>) -> Result<Topology, ScenarioError> {
    let mut replication: Option<usize> = None;
    let mut suspect_after: Option<u32> = None;
    let mut nodes: Vec<(usize, u32, u32, usize)> = Vec::new();
    for (line, toks) in body {
        match toks[0].text() {
            "replication" => {
                expect_arity(line, &toks, 2)?;
                set_once(line, "replication", &mut replication, num(line, &toks[1])?)?;
            }
            "suspect_after" => {
                expect_arity(line, &toks, 2)?;
                set_once(
                    line,
                    "suspect_after",
                    &mut suspect_after,
                    num(line, &toks[1])?,
                )?;
            }
            "node" => {
                let [a, b, c, d] = args::<4>(line, &toks)?;
                nodes.push((num(line, a)?, num(line, b)?, num(line, c)?, num(line, d)?));
            }
            key => {
                return Err(ScenarioError::UnknownKey {
                    line,
                    key: key.to_string(),
                })
            }
        }
    }
    let missing = |what: &str| ScenarioError::Truncated {
        detail: format!("cluster section missing `{what}`"),
    };
    Ok(Topology::Cluster {
        replication: replication.ok_or_else(|| missing("replication"))?,
        suspect_after: suspect_after.ok_or_else(|| missing("suspect_after"))?,
        nodes,
    })
}

fn parse_spec_source(line: usize, toks: &[&Token]) -> Result<SpecSource, ScenarioError> {
    match toks {
        [kind, name] if kind.text() == "catalog" => Ok(SpecSource::Catalog {
            name: name.text().to_string(),
        }),
        [kind, template, rps, qos] if kind.text() == "synthetic" => Ok(SpecSource::Synthetic {
            template: template.text().to_string(),
            rps: num(line, rps)?,
            qos_ms: num(line, qos)?,
        }),
        _ => Err(parse_err(
            line,
            "expected `catalog <name>` or `synthetic <template> <rps> <qos_ms>`",
        )),
    }
}

fn parse_load(line: usize, toks: &[Token]) -> Result<LoadGenerator, ScenarioError> {
    if toks.len() < 2 {
        return Err(parse_err(line, "`load` needs a shape"));
    }
    let rest = &toks[2..];
    let shape = toks[1].text();
    let gen = match shape {
        "fixed" => {
            let [f] = take::<1>(line, rest)?;
            LoadGenerator::fixed(num(line, f)?)
        }
        "step" => {
            let [min, max, factor, period] = take::<4>(line, rest)?;
            LoadGenerator::step(
                num(line, min)?,
                num(line, max)?,
                num(line, factor)?,
                num(line, period)?,
            )
        }
        "diurnal" => {
            let [min, max, period] = take::<3>(line, rest)?;
            LoadGenerator::diurnal(num(line, min)?, num(line, max)?, num(line, period)?)
        }
        "ramp" => {
            let [from, to, start, dur] = take::<4>(line, rest)?;
            LoadGenerator::ramp(
                num(line, from)?,
                num(line, to)?,
                num(line, start)?,
                num(line, dur)?,
            )
        }
        "flash_crowd" => {
            let [base, peak, start, ramp, hold] = take::<5>(line, rest)?;
            LoadGenerator::flash_crowd(
                num(line, base)?,
                num(line, peak)?,
                num(line, start)?,
                num(line, ramp)?,
                num(line, hold)?,
            )
        }
        "burst" => {
            let [base, peak, period, duty, phase] = take::<5>(line, rest)?;
            LoadGenerator::burst(
                num(line, base)?,
                num(line, peak)?,
                num(line, period)?,
                num(line, duty)?,
                num(line, phase)?,
            )
        }
        "replay" => {
            if rest.len() < 2 {
                return Err(parse_err(line, "`load replay` needs a dwell and a table"));
            }
            let dwell: u64 = num(line, &rest[0])?;
            let table = rest[1..]
                .iter()
                .map(|t| num::<f64>(line, t))
                .collect::<Result<Vec<f64>, _>>()?;
            LoadGenerator::replay(table, dwell)
        }
        other => {
            return Err(ScenarioError::UnknownKey {
                line,
                key: format!("load {other}"),
            })
        }
    };
    gen.map_err(|e| sim_err(line, e))
}

/// Like [`args`] but over an already-trimmed slice.
fn take<const N: usize>(line: usize, toks: &[Token]) -> Result<[&Token; N], ScenarioError> {
    if toks.len() != N {
        return Err(parse_err(
            line,
            format!("expected {N} argument(s), got {}", toks.len()),
        ));
    }
    let mut it = toks.iter();
    Ok(std::array::from_fn(|_| it.next().expect("arity checked")))
}

fn parse_service(id: String, body: Vec<(usize, Vec<Token>)>) -> Result<ServiceDef, ScenarioError> {
    let mut spec: Option<SpecSource> = None;
    let mut load: Option<LoadGenerator> = None;
    let mut arrive: Option<u64> = None;
    let mut depart: Option<u64> = None;
    let mut swap: Option<(u64, SpecSource)> = None;
    for (line, toks) in body {
        match toks[0].text() {
            "spec" => {
                let rest: Vec<&Token> = toks[1..].iter().collect();
                set_once(line, "spec", &mut spec, parse_spec_source(line, &rest)?)?;
            }
            "load" => {
                let parsed = parse_load(line, &toks)?;
                set_once(line, "load", &mut load, parsed)?;
            }
            "arrive" => set_once(line, "arrive", &mut arrive, one_u64(line, "arrive", &toks)?)?,
            "depart" => set_once(line, "depart", &mut depart, one_u64(line, "depart", &toks)?)?,
            "swap" => {
                if toks.len() < 3 {
                    return Err(parse_err(line, "`swap` needs an epoch and a spec source"));
                }
                let epoch: u64 = num(line, &toks[1])?;
                let rest: Vec<&Token> = toks[2..].iter().collect();
                set_once(
                    line,
                    "swap",
                    &mut swap,
                    (epoch, parse_spec_source(line, &rest)?),
                )?;
            }
            key => {
                return Err(ScenarioError::UnknownKey {
                    line,
                    key: key.to_string(),
                })
            }
        }
    }
    let missing = |what: &str| ScenarioError::Truncated {
        detail: format!("service \"{id}\" missing `{what}`"),
    };
    Ok(ServiceDef {
        spec: spec.ok_or_else(|| missing("spec"))?,
        load: load.ok_or_else(|| missing("load"))?,
        arrive: arrive.unwrap_or(0),
        depart,
        swap,
        id,
    })
}

/// Reads the body of the seeded fault section `what` over default
/// configurations: one `seed` record, at most one record per row of the two
/// field tables (`head_rows` first in the duplicate mask; only `federate`
/// has any), and `at` lines handed to `at`.
fn keyed_section<H: Default, C: Default>(
    what: &str,
    body: Vec<(usize, Vec<Token>)>,
    head_rows: &[Row<H>],
    rows: &[Row<C>],
    mut at: impl FnMut(usize, &[Token], &mut C) -> Result<(), ScenarioError>,
) -> Result<(u64, H, C), ScenarioError> {
    let (mut head, mut config) = (H::default(), C::default());
    let mut seed: Option<u64> = None;
    let mut seen = 0u64;
    for (line, toks) in body {
        let key = toks[0].text();
        if key == "seed" {
            set_once(line, "seed", &mut seed, one_u64(line, "seed", &toks)?)?;
        } else if key == "at" {
            at(line, &toks, &mut config)?;
        } else if !(read_row(head_rows, &mut head, 0, &mut seen, line, &toks)?
            || read_row(rows, &mut config, head_rows.len(), &mut seen, line, &toks)?)
        {
            return Err(ScenarioError::UnknownKey {
                line,
                key: key.to_string(),
            });
        }
    }
    let seed = seed.ok_or_else(|| ScenarioError::Truncated {
        detail: format!("{what} section missing `seed`"),
    })?;
    Ok((seed, head, config))
}

/// Sets the fields of the row `toks` is keyed by, if `rows` has it. Bit
/// `base + index` of `seen` marks the row as read.
fn read_row<C>(
    rows: &[Row<C>],
    config: &mut C,
    base: usize,
    seen: &mut u64,
    line: usize,
    toks: &[Token],
) -> Result<bool, ScenarioError> {
    let key = toks[0].text();
    let Some(index) = rows.iter().position(|row| row.key == key) else {
        return Ok(false);
    };
    let bit = 1u64 << (base + index);
    if *seen & bit != 0 {
        return Err(ScenarioError::Duplicate {
            line,
            key: key.to_string(),
        });
    }
    *seen |= bit;
    let cols = rows[index].cols;
    expect_arity(line, toks, cols.len() + 1)?;
    for (col, tok) in cols.iter().zip(&toks[1..]) {
        let value = match col.kind {
            Kind::Count => Value::Count(num(line, tok)?),
            Kind::Probability | Kind::Duration => Value::Real(num(line, tok)?),
        };
        (col.set)(config, value);
    }
    Ok(true)
}

/// The `at` handler of a section that has no script.
fn no_script<C>(line: usize, _toks: &[Token], _config: &mut C) -> Result<(), ScenarioError> {
    Err(ScenarioError::UnknownKey {
        line,
        key: "at".to_string(),
    })
}

fn parse_fed_scripted(line: usize, toks: &[Token]) -> Result<FedScripted, ScenarioError> {
    if toks.len() < 3 {
        return Err(parse_err(line, "`at` needs a round and an event"));
    }
    let round: u64 = num(line, &toks[1])?;
    let rest = &toks[3..];
    let event = match toks[2].text() {
        "corrupt" => {
            let [n] = take::<1>(line, rest)?;
            FedEvent::Corrupt {
                node: num(line, n)?,
            }
        }
        "truncate" => {
            let [n] = take::<1>(line, rest)?;
            FedEvent::Truncate {
                node: num(line, n)?,
            }
        }
        "byzantine" => {
            let [n, flavor] = take::<2>(line, rest)?;
            let flavor = match flavor.text() {
                "garbage" => ByzantineFlavor::Garbage,
                "nonfinite" => ByzantineFlavor::NonFinite,
                "offset" => ByzantineFlavor::Offset,
                other => {
                    return Err(parse_err(
                        line,
                        format!("unknown byzantine flavor `{other}` (garbage|nonfinite|offset)"),
                    ))
                }
            };
            FedEvent::Byzantine {
                node: num(line, n)?,
                flavor,
            }
        }
        "straggle" => {
            let [n, e] = take::<2>(line, rest)?;
            FedEvent::Straggle {
                node: num(line, n)?,
                epochs: num(line, e)?,
            }
        }
        "drop" => {
            let [n] = take::<1>(line, rest)?;
            FedEvent::Drop {
                node: num(line, n)?,
            }
        }
        "poison_merge" => {
            take::<0>(line, rest)?;
            FedEvent::PoisonMerge
        }
        other => {
            return Err(ScenarioError::UnknownKey {
                line,
                key: format!("at {other}"),
            })
        }
    };
    Ok(FedScripted { round, event })
}

fn parse_scripted(line: usize, toks: &[Token]) -> Result<ScriptedEvent, ScenarioError> {
    if toks.len() < 3 {
        return Err(parse_err(line, "`at` needs an epoch and an event"));
    }
    let epoch: u64 = num(line, &toks[1])?;
    let rest = &toks[3..];
    let event = match toks[2].text() {
        "crash" => {
            let [n] = take::<1>(line, rest)?;
            ClusterEvent::Crash {
                node: num(line, n)?,
            }
        }
        "restart" => {
            let [n] = take::<1>(line, rest)?;
            ClusterEvent::Restart {
                node: num(line, n)?,
            }
        }
        "drop_heartbeat" => {
            let [n] = take::<1>(line, rest)?;
            ClusterEvent::DropHeartbeat {
                node: num(line, n)?,
            }
        }
        "migrate" => {
            let [s, from, to] = take::<3>(line, rest)?;
            ClusterEvent::Migrate {
                service: num(line, s)?,
                from: num(line, from)?,
                to: num(line, to)?,
            }
        }
        "blackout" => {
            let [d] = take::<1>(line, rest)?;
            ClusterEvent::Blackout {
                epochs: num(line, d)?,
            }
        }
        "partition" => {
            let [n, d] = take::<2>(line, rest)?;
            ClusterEvent::Partition {
                node: num(line, n)?,
                epochs: num(line, d)?,
            }
        }
        other => {
            return Err(ScenarioError::UnknownKey {
                line,
                key: format!("at {other}"),
            })
        }
    };
    Ok(ScriptedEvent { epoch, event })
}

fn parse_assert(line: usize, toks: &[Token]) -> Result<Assertion, ScenarioError> {
    if toks.len() < 2 {
        return Err(parse_err(line, "`assert` needs a property"));
    }
    let rest = &toks[2..];
    match toks[1].text() {
        "qos_floor" => {
            let [who, pct] = take::<2>(line, rest)?;
            let service = match who {
                Token::Word(w) if w == "all" => None,
                Token::Str(s) => Some(s.clone()),
                Token::Word(w) => {
                    return Err(parse_err(
                        line,
                        format!("expected `all` or a quoted service id, got `{w}`"),
                    ))
                }
            };
            Ok(Assertion::QosFloor {
                service,
                pct: num(line, pct)?,
            })
        }
        "power_cap" => {
            let [w] = take::<1>(line, rest)?;
            Ok(Assertion::PowerCap {
                watts: num(line, w)?,
            })
        }
        "drop_cap" => {
            let [f] = take::<1>(line, rest)?;
            Ok(Assertion::DropCap {
                fraction: num(line, f)?,
            })
        }
        "max_shed_depth" => {
            let [d] = take::<1>(line, rest)?;
            Ok(Assertion::MaxShedDepth {
                depth: num(line, d)?,
            })
        }
        "zero_stale_actuations" => {
            take::<0>(line, rest)?;
            Ok(Assertion::ZeroStaleActuations)
        }
        "conserved" => {
            take::<0>(line, rest)?;
            Ok(Assertion::Conserved)
        }
        "max_failover" => {
            let [e] = take::<1>(line, rest)?;
            Ok(Assertion::MaxFailover {
                epochs: num(line, e)?,
            })
        }
        "fed_rounds" => {
            let [n] = take::<1>(line, rest)?;
            Ok(Assertion::FedRounds {
                committed: num(line, n)?,
            })
        }
        "fed_screened" => {
            let [n] = take::<1>(line, rest)?;
            Ok(Assertion::FedScreened {
                rejected: num(line, n)?,
            })
        }
        "deterministic" => {
            take::<0>(line, rest)?;
            Ok(Assertion::Deterministic)
        }
        other => Err(ScenarioError::UnknownKey {
            line,
            key: format!("assert {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::emit_rows;
    use twig_platform::OsFaultConfig;
    use twig_sim::StoreFaultConfig;

    /// Keys are unique, the default configuration writes nothing, and every
    /// row, set alone, writes one record that the reader reads back into the
    /// same configuration and refuses a second time.
    fn table_round_trips<C: Default + PartialEq + std::fmt::Debug>(rows: &[Row<C>]) {
        let mut text = String::new();
        emit_rows(&mut text, rows, &C::default());
        assert_eq!(text, "", "defaults are omitted");
        for (i, row) in rows.iter().enumerate() {
            let key = row.key;
            assert!(rows[..i].iter().all(|r| r.key != key), "duplicate `{key}`");
            let mut config = C::default();
            for (j, col) in row.cols.iter().enumerate() {
                let value = match col.kind {
                    Kind::Count => Value::Count(7 + j as u64),
                    Kind::Probability | Kind::Duration => Value::Real(0.25 + j as f64),
                };
                (col.set)(&mut config, value);
            }
            emit_rows(&mut text, rows, &config);
            let records = tokenize(&text).unwrap();
            assert_eq!(records.len(), 1, "`{key}` alone wrote: {text}");
            let toks = &records[0].1;
            assert_eq!(toks[0].text(), key);
            let (mut back, mut seen) = (C::default(), 0);
            assert!(read_row(rows, &mut back, 0, &mut seen, 1, toks).unwrap());
            assert_eq!(back, config, "`{key}`: {text}");
            assert!(matches!(
                read_row(rows, &mut back, 0, &mut seen, 2, toks),
                Err(ScenarioError::Duplicate { line: 2, .. })
            ));
            text.clear();
        }
    }

    #[test]
    fn every_field_table_round_trips_through_the_section_writer_and_reader() {
        table_round_trips(FaultConfig::FIELDS);
        table_round_trips(TimingFaultConfig::FIELDS);
        table_round_trips(StoreFaultConfig::FIELDS);
        table_round_trips(ClusterFaultConfig::FIELDS);
        table_round_trips(FedFaultConfig::FIELDS);
        table_round_trips(OsFaultConfig::FIELDS);
        table_round_trips(FederateSection::KNOBS);
    }
}

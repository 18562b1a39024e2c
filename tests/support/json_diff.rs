//! Differential checks between the serde shim's two paths: the direct
//! writer and reader (`serde_json::to_string` / `from_str`) against the
//! `Value` tree (`to_value().write_compact` / `from_value(parse(s))`),
//! which is the oracle.
//!
//! Shared by `tests/json_layer.rs` and by the in-crate test modules that
//! check private types (`State`, `SavedImpulse`) through `#[path]`.

#![allow(dead_code)]

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Asserts that the direct writer and the tree writer emit the same bytes,
/// and returns them.
pub fn writers_agree<T: Serialize>(value: &T) -> String {
    let direct = serde_json::to_string(value).expect("the shim's writer cannot fail");
    let mut tree = String::new();
    value.to_value().write_compact(&mut tree);
    assert!(
        direct == tree,
        "writers disagree:\n direct {}\n tree   {}",
        clip(&direct),
        clip(&tree)
    );
    direct
}

/// Asserts that the direct reader and the tree reader agree on `doc`: both
/// fail, or both succeed with values that write the same bytes. Returns
/// whether `doc` was accepted.
pub fn readers_agree<T: Serialize + Deserialize>(doc: &str) -> bool {
    let direct = serde_json::from_str::<T>(doc);
    let tree = serde_json::from_str::<Value>(doc).and_then(serde_json::from_value::<T>);
    match (direct, tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(writers_agree(&a), writers_agree(&b), "readers disagree on {}", clip(doc));
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "direct reader {} but tree reader {} on {}",
            verdict(&a.map(drop)),
            verdict(&b.map(drop)),
            clip(doc)
        ),
    }
}

/// Checks both writers on `value`, then both readers on its document and
/// on `n` seeded mutations of it. Returns how many mutations were
/// accepted, so a caller can see that some still parse.
pub fn check_round_trip<T: Serialize + Deserialize>(value: &T, seed: u64, n: usize) -> usize {
    let doc = writers_agree(value);
    assert!(readers_agree::<T>(&doc), "the unmutated document must parse: {}", clip(&doc));
    mutations(&doc, seed, n).iter().filter(|m| readers_agree::<T>(m)).count()
}

fn verdict(r: &Result<(), serde_json::Error>) -> String {
    match r {
        Ok(()) => "accepted".into(),
        Err(e) => format!("rejected ({e})"),
    }
}

fn clip(s: &str) -> String {
    match s.char_indices().nth(300) {
        Some((i, _)) => format!("{}… ({} bytes)", &s[..i], s.len()),
        None => s.to_string(),
    }
}

/// SplitMix64, so mutations repeat exactly for a seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

#[derive(Clone, Copy)]
enum Mutation {
    /// Replace the node with a value of another JSON type.
    WrongType,
    /// Leave one entry out of an object.
    DropKey,
    /// Write one entry of an object twice.
    DuplicateKey,
    /// Write one entry first with a wrong-typed value, then the original:
    /// the last value wins, so this is still valid for the tree.
    OverriddenKey,
    /// Add an entry no type declares.
    UnknownKey,
    /// Replace the node with arrays nested `n` deep.
    Nest(usize),
}

/// `n` mutations of `doc`: wrong types, dropped, duplicated, overridden
/// and unknown keys, deep nesting (within and past the reader's cap, and
/// 200 000 unclosed brackets), and truncation.
pub fn mutations(doc: &str, seed: u64, n: usize) -> Vec<String> {
    let tree: Value = serde_json::from_str(doc).expect("a document to mutate");
    let (mut nodes, mut objects) = (0, Vec::new());
    count(&tree, &mut nodes, &mut objects);
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let kind = match rng.below(9) {
                0 => Mutation::WrongType,
                1 => Mutation::DropKey,
                2 => Mutation::DuplicateKey,
                3 => Mutation::OverriddenKey,
                4 => Mutation::UnknownKey,
                5 => Mutation::Nest([100, 129, 200_000][rng.below(3)]),
                6 | 7 => {
                    let mut cut = rng.below(doc.len());
                    while !doc.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    return doc[..cut].to_string();
                }
                _ => Mutation::WrongType,
            };
            let target = match kind {
                Mutation::WrongType | Mutation::Nest(_) => rng.below(nodes),
                _ if objects.is_empty() => rng.below(nodes),
                _ => objects[rng.below(objects.len())],
            };
            let pick = rng.below(usize::MAX);
            let mut out = String::new();
            print(&tree, &mut 0, target, kind, pick, &mut out);
            out
        })
        .collect()
}

fn count(v: &Value, nodes: &mut usize, objects: &mut Vec<usize>) {
    if v.is_object() {
        objects.push(*nodes);
    }
    *nodes += 1;
    match v {
        Value::Array(items) => items.iter().for_each(|i| count(i, nodes, objects)),
        Value::Object(map) => map.values().for_each(|i| count(i, nodes, objects)),
        _ => {}
    }
}

/// A value of a different JSON type than `v`.
fn wrong_type(v: &Value) -> &'static str {
    match v {
        Value::Null => "true",
        Value::Bool(_) => "null",
        Value::Number(n) if n.is_f64() => "\"1.5\"",
        Value::Number(_) => "-1.5",
        Value::String(_) => "7",
        Value::Array(_) => "{}",
        Value::Object(_) => "[]",
    }
}

/// Writes `v` compactly, applying `kind` at node number `target`.
fn print(
    v: &Value,
    next: &mut usize,
    target: usize,
    kind: Mutation,
    pick: usize,
    out: &mut String,
) {
    let me = *next;
    *next += 1;
    if me == target {
        match kind {
            Mutation::WrongType => return out.push_str(wrong_type(v)),
            Mutation::Nest(depth) if depth == 200_000 => return out.push_str(&"[".repeat(depth)),
            Mutation::Nest(depth) => {
                return out.push_str(&format!("{}{}", "[".repeat(depth), "]".repeat(depth)))
            }
            _ => {}
        }
    }
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print(item, next, target, kind, pick, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            let entries: Vec<(&String, &Value)> = map.iter().collect();
            let chosen = (me == target && !entries.is_empty()).then(|| pick % entries.len());
            let mut parts: Vec<String> = Vec::new();
            if me == target {
                match (kind, chosen) {
                    (Mutation::UnknownKey, _) => {
                        parts.push(r#""zz_unknown":{"a":[1,{"b":null}]}"#.into())
                    }
                    (Mutation::OverriddenKey, Some(c)) => {
                        let (k, v) = entries[c];
                        parts.push(format!("{}:{}", Value::from(k.as_str()), wrong_type(v)));
                    }
                    _ => {}
                }
            }
            for (i, (k, item)) in entries.iter().enumerate() {
                if me == target && matches!(kind, Mutation::DropKey) && chosen == Some(i) {
                    // still number the dropped subtree's nodes
                    print(item, next, target, kind, pick, &mut String::new());
                    continue;
                }
                let mut part = format!("{}:", Value::from(k.as_str()));
                print(item, next, target, kind, pick, &mut part);
                if me == target && matches!(kind, Mutation::DuplicateKey) && chosen == Some(i) {
                    parts.push(part.clone());
                }
                parts.push(part);
            }
            out.push('{');
            out.push_str(&parts.join(","));
            out.push('}');
        }
        leaf => leaf.write_compact(out),
    }
}

//! Name-based array (bus) grouping.
//!
//! The paper exploits *array information* from the RTL stage: multi-bit
//! registers and ports whose bits are individual cells in the gate-level
//! netlist. Grouping them back into arrays is done by component names
//! (Sect. IV-D, step 2): `data_reg[13]`, `data_reg_13` and `data_reg13`
//! are all bits of the array `data_reg`.

use std::collections::HashMap;

/// The result of splitting a bit-level name into an array base name and a
/// bit index.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(heap-size): elaboration transient (per-bit name scratch); dropped before
// any design reaches a store
pub struct ArrayBit {
    /// The array (bus) base name, e.g. `u_core/data_reg`.
    pub base: String,
    /// The bit index, if one was recognized.
    pub index: Option<u32>,
}

/// Splits a bit-level component name into its array base name and bit index.
///
/// Recognized suffix forms (checked in this order):
///
/// * `name[13]` — bracketed index,
/// * `name_13_` or `name_13` — synthesized escaping of a bracketed index,
/// * `name13` is **not** split (plain trailing digits are too ambiguous).
///
/// # Example
///
/// ```
/// use netlist::arrays::split_array_name;
///
/// assert_eq!(split_array_name("data_reg[7]").base, "data_reg");
/// assert_eq!(split_array_name("data_reg_7_").base, "data_reg");
/// assert_eq!(split_array_name("data_reg_7").base, "data_reg");
/// assert_eq!(split_array_name("counter3").base, "counter3");
/// assert_eq!(split_array_name("data_reg[7]").index, Some(7));
/// ```
pub fn split_array_name(name: &str) -> ArrayBit {
    // form: base[idx]
    if let Some(open) = name.rfind('[') {
        if let Some(close) = name.rfind(']') {
            if close == name.len() - 1 && open < close {
                if let Ok(idx) = name[open + 1..close].parse::<u32>() {
                    return ArrayBit { base: name[..open].to_string(), index: Some(idx) };
                }
            }
        }
    }
    // form: base_idx_  (escaped bracket style)
    let trimmed = name.strip_suffix('_').unwrap_or(name);
    if let Some(pos) = trimmed.rfind('_') {
        let (base, digits) = trimmed.split_at(pos);
        let digits = &digits[1..];
        if !base.is_empty() && !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
            if let Ok(idx) = digits.parse::<u32>() {
                return ArrayBit { base: base.to_string(), index: Some(idx) };
            }
        }
    }
    ArrayBit { base: name.to_string(), index: None }
}

/// A group of bit-level items recognized as one array.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(heap-size): elaboration transient grouping bits during parsing; never
// resident in a byte-budgeted store
pub struct ArrayGroup<T> {
    /// The array base name.
    pub base: String,
    /// The members, in the order they were supplied.
    pub members: Vec<T>,
}

impl<T> ArrayGroup<T> {
    /// Number of bits grouped into the array.
    pub fn width(&self) -> usize {
        self.members.len()
    }
}

/// Groups a collection of `(name, item)` pairs into arrays by base name.
///
/// Items whose name does not look like an array bit form singleton groups
/// under their own full name.
pub fn group_by_array<T, I>(items: I) -> Vec<ArrayGroup<T>>
where
    I: IntoIterator<Item = (String, T)>,
{
    let mut order: Vec<String> = Vec::new();
    let mut map: HashMap<String, Vec<T>> = HashMap::new();
    for (name, item) in items {
        let base = split_array_name(&name).base;
        map.entry(base.clone()).or_insert_with(|| {
            order.push(base.clone());
            Vec::new()
        });
        map.get_mut(&base).expect("just inserted").push(item);
    }
    order
        .into_iter()
        .map(|base| {
            let members = map.remove(&base).expect("present");
            ArrayGroup { base, members }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_form() {
        let b = split_array_name("u_core/data_reg[31]");
        assert_eq!(b.base, "u_core/data_reg");
        assert_eq!(b.index, Some(31));
    }

    #[test]
    fn underscore_forms() {
        assert_eq!(split_array_name("q_5_").base, "q");
        assert_eq!(split_array_name("q_5_").index, Some(5));
        assert_eq!(split_array_name("q_5").base, "q");
    }

    #[test]
    fn non_array_names_untouched() {
        assert_eq!(split_array_name("state").base, "state");
        assert_eq!(split_array_name("state").index, None);
        assert_eq!(split_array_name("reg12x").base, "reg12x");
        assert_eq!(split_array_name("adder3").base, "adder3");
        // malformed bracket
        assert_eq!(split_array_name("a[b]").base, "a[b]");
        assert_eq!(split_array_name("a[3]x").base, "a[3]x");
    }

    #[test]
    fn grouping_collects_bits_in_order() {
        let items = vec![
            ("bus[0]".to_string(), 0),
            ("bus[1]".to_string(), 1),
            ("single".to_string(), 2),
            ("bus[2]".to_string(), 3),
            ("other_0".to_string(), 4),
            ("other_1".to_string(), 5),
        ];
        let groups = group_by_array(items);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].base, "bus");
        assert_eq!(groups[0].width(), 3);
        assert_eq!(groups[1].base, "single");
        assert_eq!(groups[1].width(), 1);
        assert_eq!(groups[2].base, "other");
        assert_eq!(groups[2].members, vec![4, 5]);
    }

    #[test]
    fn hierarchical_prefix_kept_in_base() {
        let groups =
            group_by_array(vec![("u_a/r[0]".to_string(), ()), ("u_b/r[0]".to_string(), ())]);
        assert_eq!(groups.len(), 2, "same leaf name in different hierarchy stays separate");
    }
}

//! Zero-alloc reachability: fns annotated `// CONTRACT: zero-alloc` must
//! not transitively reach a curated list of definitely-allocating calls.
//!
//! The sink list is *curated*, not inferred: it names operations that
//! allocate on every call (`with_capacity`, `Box::new`, `collect`,
//! `vec!`, …) and the method form `x.clone()`, which copies whatever heap
//! memory the receiver owns (a shared handle's refcount bump is spelled
//! `Arc::clone(&h)` and is not a sink). Amortized grow-only operations
//! the hot path deliberately uses on recycled buffers — `resize`,
//! `reserve`, `push`, `extend` — are excluded by design; those are
//! covered by the dynamic counting-allocator tests (DESIGN.md §2.2),
//! which verify steady-state allocation counts the static pass cannot.
//! Vendor crates (rayon et al.) are outside the call graph; the boundary
//! is documented in DESIGN.md §12.

use super::model::Workspace;
use super::parser::{Call, CallKind};
use super::Finding;

/// Method/free call names that allocate on every call.
const ALLOC_NAMES: &[&str] =
    &["with_capacity", "to_vec", "to_owned", "to_string", "into_boxed_slice", "collect"];

/// `Type::new` constructors that always heap-allocate.
const ALLOC_QUALIFIED_NEW: &[&str] = &["Box", "Arc", "Rc"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Returns the sink label when `call` is an allocating call.
pub fn alloc_sink(call: &Call) -> Option<String> {
    match call.kind {
        CallKind::Macro => {
            ALLOC_MACROS.contains(&call.name.as_str()).then(|| format!("{}!", call.name))
        }
        CallKind::Qualified => {
            if call.name == "new"
                && call.qualifier.as_deref().is_some_and(|q| ALLOC_QUALIFIED_NEW.contains(&q))
            {
                return Some(format!("{}::new", call.qualifier.as_deref().unwrap_or("")));
            }
            if call.name == "from" && call.qualifier.as_deref() == Some("String") {
                return Some("String::from".into());
            }
            ALLOC_NAMES.contains(&call.name.as_str()).then(|| call.name.clone())
        }
        // Only the method form copies: `Arc::clone(&h)` bumps a refcount.
        CallKind::Method if call.name == "clone" => Some(".clone()".into()),
        CallKind::Free | CallKind::Method => {
            ALLOC_NAMES.contains(&call.name.as_str()).then(|| call.name.clone())
        }
    }
}

pub fn check(ws: &Workspace) -> Vec<Finding> {
    ws.contract_findings("zero-alloc", "allocating", |c| c.zero_alloc, alloc_sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::model::workspace_from_sources;

    #[test]
    fn direct_allocation_flagged() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn hot() { let v: Vec<u32> = Vec::with_capacity(8); drop(v); }\n",
            )],
        )]);
        let f = check(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("with_capacity"));
        assert_eq!(f[0].context, "hot");
    }

    #[test]
    fn two_hop_allocation_carries_chain() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn hot() { mid(); }\npub fn mid() { deep(); }\npub fn deep() { let b = Box::new(3u32); drop(b); }\n",
            )],
        )]);
        let f = check(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        let chain = f[0].chain.join(" | ");
        assert!(chain.contains("hot"), "{chain}");
        assert!(chain.contains("mid"), "{chain}");
        assert!(chain.contains("deep"), "{chain}");
        assert!(chain.contains("Box::new"), "{chain}");
    }

    #[test]
    fn recycled_buffer_ops_are_not_sinks() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn hot(buf: &mut Vec<u32>) { buf.resize(8, 0); buf.push(1); buf.reserve(4); buf.extend([2u32]); }\n",
            )],
        )]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn owned_clone_is_a_sink_but_a_handle_bump_is_not() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn hot(v: &Vec<u32>, h: &Arc<u32>) { keep(v.clone()); keep(Arc::clone(h)); }\npub fn keep<T>(_: T) {}\n",
            )],
        )]);
        let f = check(&ws);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains(".clone()"), "{f:?}");
    }

    #[test]
    fn vec_macro_and_format_are_sinks() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn a() { let v = vec![1, 2]; drop(v); }\n// CONTRACT: zero-alloc\npub fn b() -> String { format!(\"x{}\", 1) }\n",
            )],
        )]);
        let f = check(&ws);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn unannotated_fn_not_checked() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[("crates/c/src/lib.rs", "pub fn cold() { let v = vec![1]; drop(v); }\n")],
        )]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn alloc_in_string_or_comment_ignored() {
        let ws = workspace_from_sources(&[(
            "c",
            &[],
            &[(
                "crates/c/src/lib.rs",
                "// CONTRACT: zero-alloc\npub fn hot() { let s = \"Vec::with_capacity(8)\"; /* collect() */ drop(s); }\n",
            )],
        )]);
        assert!(check(&ws).is_empty());
    }
}

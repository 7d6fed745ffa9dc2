//! Non-blocking reachability: fns annotated `// CONTRACT: non-blocking`
//! run as rayon pool tasks (the band bodies, the embedding stage's table
//! fork, the GEMM bands) and must not transitively reach a call that parks
//! the thread until another thread acts: `Condvar::wait*`,
//! `Receiver::recv*` or `JoinHandle::join`. A pool thread parked there
//! is one fewer thread to run the work it waits for; when every pool
//! thread waits, the step hangs.
//!
//! Rayon's own `join` and `scope` are not sinks: the thread that waits in
//! them runs pool tasks meanwhile. A free or `rayon::join(a, b)` call is
//! told apart from `JoinHandle::join` by its two arguments; `Path::join`
//! and `[_]::join` take one. Vendor crates are outside the call graph
//! (DESIGN.md §12).

use super::model::Workspace;
use super::parser::{Call, CallKind};
use super::Finding;

/// `Condvar` methods that park the caller.
const WAIT: &[&str] = &["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// Channel receives that park the caller (`try_recv` does not).
const RECV: &[&str] = &["recv", "recv_timeout", "recv_deadline"];

/// Returns the sink label when `call` can park the calling thread.
pub fn blocking_sink(call: &Call) -> Option<String> {
    let name = call.name.as_str();
    let parks = WAIT.contains(&name) || RECV.contains(&name);
    match (call.kind, call.qualifier.as_deref()) {
        (CallKind::Method, _) if parks || (name == "join" && call.args == 0) => {
            Some(format!(".{name}()"))
        }
        (CallKind::Qualified, Some(q @ ("Condvar" | "Receiver" | "JoinHandle")))
            if parks || name == "join" =>
        {
            Some(format!("{q}::{name}"))
        }
        _ => None,
    }
}

pub fn check(ws: &Workspace) -> Vec<Finding> {
    ws.contract_findings("non-blocking", "blocking", |c| c.non_blocking, blocking_sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::model::workspace_from_sources;

    fn findings(src: &str) -> Vec<Finding> {
        check(&workspace_from_sources(&[("c", &[], &[("crates/c/src/lib.rs", src)])]))
    }

    #[test]
    fn condvar_wait_two_hops_down_carries_chain() {
        let f = findings(
            "// CONTRACT: non-blocking\npub fn band(s: &Slot) { claim(s); }\n\
             fn claim(s: &Slot) { s.take(1, 2); }\n\
             pub struct Slot;\nimpl Slot {\n    pub fn take(&self, a: u32, b: u32) { let g = lock(); let _g = self.cv.wait(g); }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let chain = f[0].chain.join(" | ");
        for hop in ["band", "claim", "Slot::take", ".wait()"] {
            assert!(chain.contains(hop), "missing `{hop}`: {chain}");
        }
    }

    #[test]
    fn channel_receives_and_thread_joins_are_sinks() {
        let f = findings(
            "// CONTRACT: non-blocking\npub fn a(rx: &R) { let _ = rx.recv(); }\n\
             // CONTRACT: non-blocking\npub fn b(rx: &R) { let _ = rx.recv_timeout(T); }\n\
             // CONTRACT: non-blocking\npub fn c(h: H) { let _ = h.join(); }\n\
             // CONTRACT: non-blocking\npub fn d(h: H) { let _ = JoinHandle::join(h); }\n",
        );
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn pool_joins_path_joins_and_try_recv_are_not_sinks() {
        let f = findings(
            "// CONTRACT: non-blocking\npub fn band(rx: &R, p: &Path, parts: &[&str]) {\n\
             rayon::join(|| 1, || 2);\n    join(|| 1, || 2);\n    let _ = p.join(\"x\");\n\
             let _ = parts.join(\",\");\n    let _ = rx.try_recv();\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unannotated_fn_may_block() {
        assert!(findings("pub fn drain(rx: &R) { let _ = rx.recv(); }\n").is_empty());
    }
}

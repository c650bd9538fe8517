//! C003 fixture: mutability reachable through Arc<EngineSnapshot>.

struct EngineSnapshot {
    estimator: Estimator,
    tables: ServingTables,
    bounds: BoundCache,
    generation: u64,
}

// Bound tables ride inside the published snapshot as pure data; a
// lazily-refreshed hit counter here would be written while the
// optimizer's bound scans read it.
struct BoundCache {
    monotone_in_p: Vec<bool>,
    bound_hits: AtomicU32,
}

// Interior mutability two hops from the snapshot root.
struct Estimator {
    cache: CoefCache,
}

struct CoefCache {
    hits: AtomicU64,
}

// Serving tables riding inside the published snapshot are held to the
// same frozen-deeply rule: a memo counter here is a data race waiting
// for a reader.
struct ServingTables {
    banks: Vec<f64>,
    memo_hits: AtomicUsize,
}

impl EngineSnapshot {
    // Mutating method on the frozen snapshot.
    fn bump(&mut self) {
        self.generation += 1;
    }
}

// A mutable borrow of the published snapshot type.
fn poke(s: &mut EngineSnapshot) {
    s.generation += 1;
}

// In-place mutation of the shared Arc.
fn patch(shared: &mut Arc<EngineSnapshot>) {
    let s = Arc::make_mut(shared_snapshot(shared));
    s.generation += 1;
}

//! Offline stand-in for `rayon` (see `crates/perf/README.md`): the one
//! shape the workspace uses, `into_par_iter().map(f).collect::<Vec<_>>()`
//! (`ShardedIndex::build`). Items are dealt round-robin to one scoped
//! thread per available core and the results returned in input order, so
//! the index build is parallel as it is with rayon, without a pool or work
//! stealing.

/// The traits `use rayon::prelude::*` brings in.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// `into_par_iter()` for anything iterable.
pub trait IntoParallelIterator: IntoIterator + Sized {
    fn into_par_iter(self) -> ParIter<Self::Item> {
        ParIter(self.into_iter().collect())
    }
}

impl<I: IntoIterator> IntoParallelIterator for I {}

pub struct ParIter<T>(Vec<T>);

impl<T: Send> ParIter<T> {
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.0, f }
    }
}

pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in self.items.into_iter().enumerate() {
            lanes[i % workers].push((i, item));
        }
        let f = &self.f;
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    scope
                        .spawn(move || lane.into_iter().map(|(i, t)| (i, f(t))).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a parallel map closure panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn results_come_back_in_input_order() {
        let squares: Vec<usize> = (0..37usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|b| b).collect();
        assert!(none.is_empty());
    }
}

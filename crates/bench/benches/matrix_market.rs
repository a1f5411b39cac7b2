//! Criterion bench for the Matrix Market reader: entries per second for
//! `general`, `symmetric` and `pattern` files, each written row-major
//! (what `io::write_matrix_market` emits, so the reader can skip its
//! sort) and column-major (which forces the sort).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spsel_matrix::{gen, io, CooMatrix, SpMv};
use std::fmt::Write;

/// Render `m` with the given header, keeping only the lower triangle for
/// `symmetric`; returns the file text and its number of entry lines.
fn render(m: &CooMatrix, header: &str, col_major: bool) -> (Vec<u8>, usize) {
    let mut entries: Vec<(usize, usize, f64)> = m
        .iter()
        .filter(|&(r, c, _)| !header.contains("symmetric") || r >= c)
        .collect();
    if col_major {
        entries.sort_by_key(|&(r, c, _)| (c, r));
    }
    let mut text = format!(
        "%%MatrixMarket matrix coordinate {header}\n{} {} {}\n",
        m.nrows(),
        m.ncols(),
        entries.len()
    );
    for &(r, c, v) in &entries {
        if header.starts_with("pattern") {
            writeln!(text, "{} {}", r + 1, c + 1).unwrap();
        } else {
            writeln!(text, "{} {} {:.17e}", r + 1, c + 1, v).unwrap();
        }
    }
    (text.into_bytes(), entries.len())
}

fn bench_matrix_market(c: &mut Criterion) {
    // ~50k nonzeros, the middle of the serve-mtx size range.
    let m = gen::random_uniform(10_000, 10_000, 5, 13);
    let symmetric = {
        let mut t: Vec<(usize, usize, f64)> = m.iter().filter(|&(r, c, _)| r != c).collect();
        t.extend(
            m.iter()
                .map(|(r, c, v)| (c, r, v))
                .filter(|&(r, c, _)| r != c),
        );
        t.sort_unstable_by_key(|&(r, c, _)| (r, c));
        t.dedup_by_key(|&mut (r, c, _)| (r, c));
        CooMatrix::from_triplets(m.nrows(), m.ncols(), &t).expect("symmetrized")
    };

    let mut group = c.benchmark_group("matrix_market_50k");
    group.sample_size(20);
    for (header, matrix) in [
        ("real general", &m),
        ("real symmetric", &symmetric),
        ("pattern general", &m),
    ] {
        for col_major in [false, true] {
            let (text, entries) = render(matrix, header, col_major);
            let order = if col_major { "col_major" } else { "row_major" };
            group.throughput(Throughput::Elements(entries as u64));
            group.bench_function(format!("{}/{order}", header.replace(' ', "_")), |b| {
                b.iter(|| io::read_matrix_market(text.as_slice()).expect("valid file"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matrix_market);
criterion_main!(benches);

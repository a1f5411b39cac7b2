//! The JSON codec's heap allocations on the serving path, counted.
//!
//! A counting global allocator wraps the system allocator (as in
//! `crates/core/tests/zero_alloc.rs`). Encoding a select reply into a
//! buffer with spare capacity must allocate nothing, and decoding an
//! inline select line must allocate only the blocks the decoded request
//! owns: its GPU name, its feature vector (at its final length) and its
//! workload name. Everything lives in one `#[test]` because the counter
//! is process-global: concurrent test threads would pollute it.

use spsel_serve::{Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SELECT_TRANSCRIPT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/select-transcript.jsonl"
);

/// A `serve-features` select line: 21 inline features, `spmm32`.
const INLINE_SELECT: &str = "{\"Select\":{\"matrix\":null,\"features\":[4096.0,4096.0,20480.0,\
0.001220703125,5.0,5.0,5.0,0.0,0.0,1.0,5.0,5.0,0.0,0.0,1.0,3.0,0.0,0.0,1.0,0.0,0.0],\
\"gpu\":\"pascal\",\"iterations\":null,\"deadline_ms\":null,\"learn\":true,\"workload\":\"spmm32\"}}";

#[test]
fn the_serving_codec_allocates_only_what_it_returns() {
    // Every select reply of the committed transcript, decoded up front.
    let transcript = std::fs::read_to_string(SELECT_TRANSCRIPT).expect("read the transcript");
    let replies: Vec<(Response, &str)> = transcript
        .lines()
        .map(|line| {
            let at = line.find(",\"response\":").expect("a response") + ",\"response\":".len();
            let json = &line[at..line.len() - 1];
            (serde_json::from_str(json).expect("replies decode"), json)
        })
        .filter(|(r, _): &(Response, &str)| r.select.is_some())
        .collect();
    assert!(replies.len() > 400, "{} select replies", replies.len());

    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let before = allocations();
    for (reply, json) in &replies {
        buf.clear();
        serde_json::to_writer(&mut buf, reply).expect("replies encode");
        assert_eq!(buf, json.as_bytes());
    }
    assert_eq!(
        allocations() - before,
        0,
        "encoding a reply into a buffer with room allocated"
    );

    let before = allocations();
    let request: Request = serde_json::from_str(INLINE_SELECT).expect("the line decodes");
    let spent = allocations() - before;
    let Request::Select {
        features,
        gpu,
        workload,
        ..
    } = &request
    else {
        panic!("a select, got {request:?}")
    };
    let features = features.as_ref().expect("inline features");
    assert_eq!(features.len(), 21);
    assert_eq!(features.capacity(), 21, "the vector is allocated at length");
    assert_eq!(
        (gpu.as_str(), workload.as_deref()),
        ("pascal", Some("spmm32"))
    );
    assert_eq!(
        spent, 3,
        "decoding made {spent} allocations; the request owns 3 blocks"
    );
}

//! Hand-rolled wire format for the control plane.
//!
//! The paper's protocol economics are stated in bytes — "sketches ... fit
//! into a single 1KB packet" (§3), "filters for 10,000 packets using just
//! 40,000 bits, which can fit into five 1 KB packets" (§5.2), "a gigabyte
//! of content will typically require a summary on the order of 10KB"
//! (§3). A self-describing serialization layer would bury those claims
//! under framing overhead, so every message here is encoded by hand with
//! a byte-exact, documented layout, and [`budget`] turns the paper's
//! sentences into compile-and-run assertions.
//!
//! * [`message`] — the control messages: the min-wise working-set
//!   sketch (the §4 calling card), the generic tagged summary frame (any
//!   mechanism registered in the peers' `SummaryRegistry`, addressed by
//!   its stable `SummaryId`), symbol requests, and the data-plane symbol
//!   frames (encoded and recoded).
//! * [`framing`] — length-prefixed frames over any `Read`/`Write` pair
//!   (used by the `tcp_reconcile` example; blocking `std::net` is all the
//!   workload needs — the transfers are CPU-bound, not connection-bound).
//! * [`buffered`] — the fixed-size buffering the blocking session
//!   drivers put between the framing layer and a socket.
//! * [`budget`] — the packet-budget ledger.
//!
//! Layout conventions: all integers little-endian; every message starts
//! with a 1-byte tag; vectors are a u32 count followed by elements.
//! Malformed input yields a [`WireError`], never a panic — these bytes
//! cross a trust boundary.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod budget;
pub mod buffered;
pub mod framing;
pub mod message;

pub use buffered::buffered_session;
pub use framing::{
    encode_frame, encode_recoded_frame, read_frame, read_frame_bytes, write_frame, write_frame_buf,
    FrameError, FrameLimit,
};
pub use message::{
    encoded_symbol_frame_len, minwise_frame_len, recoded_symbol_frame_len, summary_frame_len,
    symbol_request_frame_len, Message, WireError, FRAME_PREFIX_BYTES,
};

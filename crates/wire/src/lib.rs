//! # wire — the shared bit-exact wire encoding
//!
//! Both network layers of the workspace — the serving front-end
//! (`mvn-service::tcp`) and the distributed runtime (`mvn-dist`) — speak
//! line-delimited JSON over `std`-only TCP, with `f64` values rendered in
//! Rust's shortest-roundtrip form so a number survives any number of
//! encode/decode trips bit-for-bit. That encoding used to live inside
//! `mvn-service`; it is factored out here so the two transports cannot drift
//! apart:
//!
//! * [`json`] — the dependency-free JSON value type, recursive-descent
//!   parser and compact renderer (bitwise `f64` round-trips, depth-limited
//!   parsing), and [`parse_limits`], the one decoder of the `null`-as-∞
//!   limit arrays both protocols carry.
//! * [`frame`] — one-JSON-document-per-line framing over any
//!   `Read`/`Write` pair, plus raw little-endian `f64` blocks after a line:
//!   `mvn-dist` sends its control messages as lines and its tiles as a
//!   shape line followed by blocks, so tile values travel as their raw bits.

pub mod frame;
pub mod json;

pub use frame::{
    read_block_bounded, read_msg, read_msg_bounded, write_frame, write_msg, FrameError,
    MAX_FRAME_BYTES,
};
pub use json::{parse_limits, Json};

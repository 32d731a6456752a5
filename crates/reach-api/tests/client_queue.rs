//! The client's outgoing queue: when request frames reach the socket.
//!
//! `ReachClient::send` only encodes into a per-connection queue. The queue
//! is written when it holds `QUEUE_FLUSH_BYTES`, before the client blocks
//! on a read, on `flush`, and on drop — and nowhere else. Each test drives
//! a client against a raw socket and checks what has arrived, byte for
//! byte, at each step.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use reach_api::client::QUEUE_FLUSH_BYTES;
use reach_api::proto::{encode, encode_response_frame};
use reach_api::{ClientError, ReachClient, ReachRequest, ReachResponse};

/// A client connected to a fresh listener, and the server's end.
fn connected() -> (ReachClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = ReachClient::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    (client, server)
}

/// The frame `send` queues for `request` under `id`.
fn stamped(request: &ReachRequest, id: u64) -> Vec<u8> {
    encode(&request.clone().with_id(id))
}

/// Asserts that nothing arrives on `server` within `wait` milliseconds.
fn assert_nothing_arrives(server: &mut TcpStream, wait: u64, when: &str) {
    server.set_read_timeout(Some(Duration::from_millis(wait))).unwrap();
    let mut byte = [0u8; 1];
    match server.read(&mut byte) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("bytes reached the socket {when}: {other:?}"),
    }
    server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
}

/// Reads exactly `want.len()` bytes and asserts they are `want`.
fn assert_arrives(server: &mut TcpStream, want: &[u8], when: &str) {
    let mut got = vec![0u8; want.len()];
    server.read_exact(&mut got).unwrap_or_else(|e| panic!("{when}: {e}"));
    assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(want), "{when}");
}

fn query(i: u32) -> ReachRequest {
    ReachRequest::scalar(vec!["US".into(), "ES".into()], vec![i, i + 7, i + 19])
}

#[test]
fn frames_reach_the_socket_in_send_order_only_at_flush_points() {
    let (mut client, mut server) = connected();

    // Queued, not written.
    let (a, b) = (query(1), query(2));
    let ids = [client.send(&a).unwrap(), client.send(&b).unwrap()];
    assert_nothing_arrives(&mut server, 150, "after two sends");

    // An explicit flush writes both, in send order, byte-identical to the
    // cloned-and-stamped encoding.
    client.flush().unwrap();
    let mut want = stamped(&a, ids[0]);
    want.extend(stamped(&b, ids[1]));
    assert_arrives(&mut server, &want, "after flush");
    client.flush().unwrap();
    assert_nothing_arrives(&mut server, 150, "after flushing an empty queue");

    // The size bound: below QUEUE_FLUSH_BYTES nothing moves; the send that
    // reaches it writes the whole queue.
    let mut queued = Vec::new();
    for i in 10.. {
        let request = query(i);
        queued.extend(stamped(&request, client.send(&request).unwrap()));
        if queued.len() >= QUEUE_FLUSH_BYTES {
            break;
        }
        assert_nothing_arrives(&mut server, 20, "below the size bound");
    }
    assert_arrives(&mut server, &queued, "at the size bound");
    assert_nothing_arrives(&mut server, 150, "right after the size bound");

    // Drop writes what is left.
    let c = query(99);
    let id = client.send(&c).unwrap();
    assert_nothing_arrives(&mut server, 150, "before drop");
    drop(client);
    let mut rest = Vec::new();
    server.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, stamped(&c, id), "drop flushes the queue");
}

#[test]
fn a_read_writes_the_queue_first() {
    let (mut client, mut server) = connected();
    let (a, b) = (query(3), query(4));
    let first = client.send(&a).unwrap();
    let second = first + 1;
    let mut want = stamped(&a, first);
    want.extend(stamped(&b, second));
    let waiter = std::thread::spawn(move || {
        // `request` queues b behind a, then blocks reading: both frames
        // must be on the wire before it does.
        let answer = client.request(&b);
        (client, answer)
    });
    assert_arrives(&mut server, &want, "before the client's read");
    let reach = ReachResponse::Reach { reported: 42, floored: false, too_narrow_warning: false };
    server.write_all(&encode_response_frame(Some(second), None, &reach)).unwrap();
    let (_client, answer) = waiter.join().unwrap();
    assert_eq!(answer.unwrap(), reach);
}

#[test]
fn write_errors_surface_from_flush_and_receive() {
    let (mut client, server) = connected();
    drop(server);
    // The first write into a closed peer may still succeed (the peer
    // answers it with a reset); a later one must fail.
    let request = query(5);
    let mut failed = None;
    for _ in 0..100 {
        client.send(&request).unwrap();
        match client.flush() {
            Ok(()) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    assert!(matches!(failed, Some(ClientError::Io(_))), "flush: {failed:?}");
    // `receive` writes the queue before it reads, so it fails the same way.
    let id = client.send(&request).unwrap();
    match client.receive(&request, id) {
        Err(ClientError::Io(_)) => {}
        other => panic!("receive after a failed write: {other:?}"),
    }
}

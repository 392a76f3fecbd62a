//! R13 fixture: channel handshake-before-payload, BUSY terminality
//! and WAL-attach-before-mutation.

fn send_hello(chan: &mut Chan, buf: &[u8]) {
    chan.write_all(buf);
}

fn open_bad(chan: &mut Chan, cfg: &Cfg, buf: &[u8]) {
    send_hello(chan, buf);
    connect(chan, cfg);
}

fn open_good(chan: &mut Chan, cfg: &Cfg, buf: &[u8]) {
    connect(chan, cfg);
    send_hello(chan, buf);
}

fn shed_bad(chan: &mut Chan, reason: &str, buf: &[u8]) {
    send_busy(chan, reason);
    chan.write_all(buf);
}

fn shed_good(chan: &mut Chan, reason: &str) {
    send_busy(chan, reason);
}

fn init_store_bad(store: &mut Store, rec: &[u8], wal: &Wal) {
    store.put(rec);
    store.attach_durable(wal);
}

fn init_store_good(store: &mut Store, rec: &[u8], wal: &Wal) {
    store.attach_durable(wal);
    store.put(rec);
}

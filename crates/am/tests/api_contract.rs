//! API-contract tests: GAM rules enforced at runtime, degenerate
//! arguments, statistics precision, and misuse panics.

use sp_adapter::SpConfig;
use sp_am::{Am, AmArgs, AmConfig, AmEnv, AmMachine, GlobalPtr};

#[derive(Default)]
struct St {
    count: u32,
    last: [u32; 4],
    nargs: u8,
}

fn record(env: &mut AmEnv<'_, St>, args: AmArgs) {
    env.state.count += 1;
    env.state.last = args.a;
    env.state.nargs = args.nargs;
}

fn replying(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.state.count += 1;
    env.reply_1(0, 7);
}

fn illegal_second_reply(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.reply_1(0, 1);
    env.reply_1(0, 2); // must panic: one reply per handler
}

fn replying_from_reply(env: &mut AmEnv<'_, St>, _args: AmArgs) {
    env.reply_1(0, 9); // must panic when invoked as a reply handler
}

#[test]
fn argument_words_delivered_exactly() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.request_4(1, 0, 11, 22, 33, 44);
        am.request_2(1, 0, 55, 66);
        am.barrier();
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.poll_until(|s| s.count >= 1);
        assert_eq!((am.state().last, am.state().nargs), ([11, 22, 33, 44], 4));
        am.poll_until(|s| s.count >= 2);
        assert_eq!(am.state().last[..2], [55, 66]);
        assert_eq!(am.state().nargs, 2);
        am.barrier();
    });
    m.run().unwrap();
}

#[test]
fn double_reply_panics() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.register(illegal_second_reply);
        am.request_1(1, 1, 0);
        am.poll_until(|s| s.count >= 1);
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.register(illegal_second_reply);
        am.poll_until(|_| false);
    });
    let err = m.run().unwrap_err();
    assert!(format!("{err}").contains("at most once"), "got: {err}");
}

#[test]
fn reply_from_reply_handler_panics() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(replying_from_reply); // handler 0: replies (illegal as reply target)
        am.register(replying); // handler 1: request handler replying with handler 0
        am.request_1(1, 1, 0);
        am.poll_until(|s| s.count >= 1); // reply dispatch panics first
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(replying_from_reply);
        am.register(replying);
        am.poll_until(|s| s.count >= 1);
        am.drain(sp_sim::Dur::ms(1.0));
    });
    let err = m.run().unwrap_err();
    assert!(format!("{err}").contains("illegal"), "got: {err}");
}

#[test]
fn zero_length_store_and_get_complete_immediately() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("a", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        let h = am.store_async(GlobalPtr { node: 1, addr: 0 }, &[], None, &[], None);
        assert!(
            am.bulk_done(h),
            "zero-length store must complete immediately"
        );
        let g = am.get(GlobalPtr { node: 1, addr: 0 }, 0, 0, None, &[]);
        assert!(am.bulk_done(g), "zero-length get must complete immediately");
        am.barrier();
    });
    m.spawn("b", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.barrier();
    });
    m.run().unwrap();
}

#[test]
fn single_node_barrier_and_self_bulk() {
    let mut m = AmMachine::new(SpConfig::thin(1), AmConfig::default(), 1);
    m.spawn("solo", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.barrier(); // no peers: must return immediately
        let dst = am.alloc(1024);
        let data = vec![9u8; 1024];
        am.store(dst, &data, Some(0), &[]);
        assert_eq!(am.state().count, 1, "loopback store handler ran");
        let got = am.mem_pool().read_vec(dst, 1024);
        assert_eq!(got, data);
    });
    m.run().unwrap();
}

#[test]
fn store_from_local_memory() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        let src = am.alloc(512);
        am.mem().write(src.addr, &vec![0x42u8; 512]);
        am.barrier();
        am.store_from(src.addr, GlobalPtr { node: 1, addr: 0 }, 512, Some(0), &[]);
        am.barrier();
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.alloc(512);
        am.barrier();
        am.poll_until(|s| s.count >= 1);
        assert_eq!(
            am.mem_pool().read_vec(GlobalPtr { node: 1, addr: 0 }, 512),
            vec![0x42u8; 512]
        );
        am.barrier();
    });
    m.run().unwrap();
}

#[test]
fn stats_count_precisely() {
    let mut m = AmMachine::new(SpConfig::thin(2), AmConfig::default(), 1);
    m.spawn("tx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.register(replying);
        for _ in 0..7 {
            am.request_1(1, 0, 0);
        }
        let data = vec![1u8; 10_000];
        am.store(GlobalPtr { node: 1, addr: 0 }, &data, None, &[]);
        let dst = am.alloc(100);
        let _ = am.get(GlobalPtr { node: 1, addr: 0 }, dst.addr, 100, None, &[]);
        am.quiesce();
        let s = am.stats();
        assert_eq!(s.requests_sent, 7);
        assert_eq!(s.stores, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.packets_retransmitted, 0);
        am.barrier();
    });
    m.spawn("rx", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.register(replying);
        am.alloc(10_000);
        am.poll_until(|s| s.count >= 7);
        am.barrier();
    });
    m.run().unwrap();
}

#[test]
fn get_from_wide_node_machine() {
    // The whole stack also runs on the wide-node cost model.
    let mut m = AmMachine::new(SpConfig::wide(2), AmConfig::default(), 1);
    m.spawn("holder", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        let p = am.alloc(4096);
        am.mem().write(p.addr, &vec![0x99u8; 4096]);
        am.barrier();
        am.barrier();
    });
    m.spawn("getter", St::default(), |am: &mut Am<'_, St>| {
        am.register(record);
        am.barrier();
        let dst = am.alloc(4096);
        am.get_blocking(GlobalPtr { node: 0, addr: 0 }, dst.addr, 4096);
        assert_eq!(am.mem().read_u32(dst.addr), u32::from_le_bytes([0x99; 4]));
        am.barrier();
    });
    m.run().unwrap();
}

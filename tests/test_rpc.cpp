// The RPC serving daemon over real loopback sockets: wire-protocol framing
// round-trips, hostile-input robustness (truncated / bit-flipped / inflated
// frames must close the connection without crashing the daemon or wedging
// other clients), pipelined concurrent clients with per-request attribution,
// mid-request disconnects, and graceful shutdown draining in-flight batches.
//
// The fuzz-style sweep is seeded and deterministic (BNR_RPC_FUZZ_SEED
// overrides), and the whole suite runs in the ASan and TSan CI matrices —
// the daemon's event loop, the services' pool workers, and the client reader
// threads all cross here.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "fixtures.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"

namespace bnr {
namespace {

using namespace bnr::rpc;
using namespace bnr::threshold;

// ---------------------------------------------------------------------------
// Pure wire-level units (no sockets)

TEST(Wire, FrameBufferReassemblesSplitFrames) {
  Bytes framed;
  Bytes p1 = to_bytes("hello");
  Bytes p2 = to_bytes("world!");
  append_frame(framed, p1);
  append_frame(framed, p2);

  // Feed one byte at a time: frames come out exactly at their boundaries.
  FrameBuffer fb;
  Bytes out;
  std::vector<Bytes> got;
  for (uint8_t b : framed) {
    fb.feed({&b, 1});
    while (fb.next(out) == FrameBuffer::Result::kFrame) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(Wire, OversizedLengthPrefixRejectedBeforeBuffering) {
  FrameBuffer fb(1024);
  Bytes evil = {0x7f, 0xff, 0xff, 0xff};  // declares a 2GB frame
  fb.feed(evil);
  Bytes out;
  EXPECT_EQ(fb.next(out), FrameBuffer::Result::kTooBig);
  // No 2GB staging happened: only the 4 header bytes are held.
  EXPECT_LE(fb.buffered(), 4u);
}

TEST(Wire, RequestEncodersRoundTrip) {
  VerifyRequest v{"tenant-7", to_bytes("msg"), to_bytes("sigbytes")};
  Bytes enc = encode_verify(42, v);
  ByteReader rd(enc);
  RequestHeader h = decode_request_header(rd);
  EXPECT_EQ(h.method, Method::kVerify);
  EXPECT_EQ(h.request_id, 42u);
  VerifyRequest d = decode_verify(rd);
  EXPECT_EQ(d.key, v.key);
  EXPECT_EQ(d.msg, v.msg);
  EXPECT_EQ(d.sig, v.sig);

  CombineRequest c{"k", to_bytes("m"), {to_bytes("p1"), to_bytes("p2")}};
  Bytes enc2 = encode_combine(7, c);
  ByteReader rd2(enc2);
  EXPECT_EQ(decode_request_header(rd2).method, Method::kCombine);
  CombineRequest dc = decode_combine(rd2);
  EXPECT_EQ(dc.partials.size(), 2u);
  EXPECT_EQ(dc.partials[1], c.partials[1]);

  BatchVerifyRequest b{"k", {{to_bytes("m1"), to_bytes("s1")},
                             {to_bytes("m2"), to_bytes("s2")}}};
  Bytes enc3 = encode_batch_verify(9, b);
  ByteReader rd3(enc3);
  EXPECT_EQ(decode_request_header(rd3).method, Method::kBatchVerify);
  BatchVerifyRequest db = decode_batch_verify(rd3);
  ASSERT_EQ(db.items.size(), 2u);
  EXPECT_EQ(db.items[1].first, to_bytes("m2"));

  RegisterTenantRequest r;
  r.token = "sekrit";
  r.key = "t";
  r.scheme = static_cast<uint8_t>(SchemeId::kRo);
  r.committee = true;
  r.pk = to_bytes("pkpkpkpk");
  r.n = 2;
  r.t = 1;
  r.vks = {to_bytes("vk1x"), to_bytes("vk2x")};
  Bytes enc4 = encode_register(11, r);
  ByteReader rd4(enc4);
  EXPECT_EQ(decode_request_header(rd4).method, Method::kRegisterTenant);
  RegisterTenantRequest dr = decode_register(rd4);
  EXPECT_EQ(dr.token, "sekrit");
  EXPECT_EQ(dr.scheme, static_cast<uint8_t>(SchemeId::kRo));
  EXPECT_TRUE(dr.committee);
  EXPECT_EQ(dr.n, 2u);
  EXPECT_EQ(dr.vks.size(), 2u);

  // Undefined flag bits are a protocol violation, not silently ignored.
  ByteWriter wbad;
  encode_request_header(wbad, Method::kRegisterTenant, 12);
  wbad.str("");
  wbad.str("t");
  wbad.u8(static_cast<uint8_t>(SchemeId::kRo));
  wbad.u8(0x80);  // undefined flag
  wbad.blob(to_bytes("pk"));
  Bytes badreg = wbad.take();
  ByteReader rd5(badreg);
  (void)decode_request_header(rd5);
  EXPECT_THROW(decode_register(rd5), ProtocolError);
}

TEST(Wire, StatsRoundTrip) {
  DaemonStats s;
  s.tenants = 3;
  s.deduped_keys = 1;
  s.auth_failures = 2;
  s.conns_rejected = 5;
  s.verify_accepted = 1234567890123ull;
  s.combines = 17;
  s.connections = 400;       // lifetime accepts
  s.open_connections = 12;   // live gauge, independent of the accept total
  SchemeStatsRow row;
  row.scheme = static_cast<uint8_t>(SchemeId::kDlin);
  row.tenants = 2;
  row.verify_submitted = 99;
  row.cache_misses = 4;
  row.combines = 7;
  s.schemes.push_back(row);
  Bytes enc = encode_stats(s);
  ByteReader rd(enc);
  DaemonStats d = decode_stats(rd);
  EXPECT_TRUE(rd.empty());
  EXPECT_EQ(d.tenants, 3u);
  EXPECT_EQ(d.deduped_keys, 1u);
  EXPECT_EQ(d.auth_failures, 2u);
  EXPECT_EQ(d.conns_rejected, 5u);
  EXPECT_EQ(d.verify_accepted, 1234567890123ull);
  EXPECT_EQ(d.combines, 17u);
  EXPECT_EQ(d.connections, 400u);
  EXPECT_EQ(d.open_connections, 12u);
  ASSERT_EQ(d.schemes.size(), 1u);
  EXPECT_EQ(d.scheme_row(SchemeId::kDlin).verify_submitted, 99u);
  EXPECT_EQ(d.scheme_row(SchemeId::kDlin).cache_misses, 4u);
  EXPECT_EQ(d.scheme_row(SchemeId::kDlin).combines, 7u);
  // A row for a scheme this snapshot does not carry reads as zeros.
  EXPECT_EQ(d.scheme_row(SchemeId::kBls).verify_submitted, 0u);
}

TEST(Wire, TruncatedBodiesThrow) {
  VerifyRequest v{"tenant", to_bytes("message"), to_bytes("signature")};
  Bytes enc = encode_verify(1, v);
  // Every strict prefix of the payload must throw out of the decoder, never
  // parse to garbage.
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    ByteReader rd(std::span<const uint8_t>(enc.data(), cut));
    EXPECT_THROW(
        {
          RequestHeader h = decode_request_header(rd);
          (void)decode_verify(rd);
          (void)h;
        },
        std::exception)
        << "prefix length " << cut;
  }
}

TEST(Wire, HostileCountsCannotDriveAllocations) {
  // A BATCH_VERIFY declaring 2^31 items in a 40-byte frame: ByteReader::count
  // bounds the claim by the bytes present and throws before any reserve.
  ByteWriter w;
  encode_request_header(w, Method::kBatchVerify, 5);
  w.str("k");
  w.u32(0x80000000u);
  w.raw(to_bytes("short"));
  Bytes payload = w.take();
  ByteReader rd(payload);
  (void)decode_request_header(rd);
  EXPECT_THROW(decode_batch_verify(rd), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Live daemon fixture

class RpcDaemonTest : public testfx::RoSchemeFixture {
 protected:
  RpcDaemonTest() : testfx::RoSchemeFixture("rpc-daemon/v1") {}

  void SetUp() override {
    pool_ = std::make_unique<service::ThreadPool>(4);
    ServerConfig cfg;
    cfg.port = 0;
    cfg.params_label = "rpc-daemon/v1";
    cfg.cache_bytes = size_t(64) << 20;
    // Short batching delay: tests wait on round trips, not on flush timers.
    cfg.batch.max_delay = std::chrono::milliseconds(1);
    server_ = std::make_unique<RpcServer>(cfg, *pool_);
    serving_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_) {
      server_->stop();
      serving_.join();
      server_.reset();
    }
    pool_.reset();
  }

  uint16_t port() const { return server_->port(); }

  /// Raw TCP helper for hostile-bytes tests (RpcClient refuses to emit
  /// malformed frames).
  struct RawConn {
    int fd = -1;
    explicit RawConn(uint16_t port) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
        throw std::runtime_error("raw connect failed");
    }
    ~RawConn() {
      if (fd >= 0) ::close(fd);
    }
    void send_all(std::span<const uint8_t> data) {
      size_t off = 0;
      while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) return;  // peer already closed on us: fine for tests
        off += size_t(n);
      }
    }
    /// Blocks until the peer closes (returns total bytes read until EOF).
    size_t read_to_eof() {
      uint8_t buf[4096];
      size_t total = 0;
      for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return total;
        total += size_t(n);
      }
    }
  };

  std::unique_ptr<service::ThreadPool> pool_;
  std::unique_ptr<RpcServer> server_;
  std::thread serving_;
};

TEST_F(RpcDaemonTest, VerifyCombineAndStatsRoundTrip) {
  auto km = keygen(5, 2);
  RpcClient client("127.0.0.1", port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());

  auto [msg, sig] = make_signed(km, "round trip");
  EXPECT_TRUE(client.verify_sync("acme", msg, sig));
  EXPECT_FALSE(client.verify_sync("acme", msg, forge(sig)));

  // Combine over the wire equals the local combine.
  Bytes m2 = to_bytes("wire combine");
  auto parts = first_partials(km, m2);
  Signature combined = client.combine_sync("acme", m2, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m2, combined));

  auto st = client.stats_sync();
  EXPECT_EQ(st.tenants, 1u);
  EXPECT_EQ(st.verify_submitted, 2u);
  EXPECT_EQ(st.verify_accepted, 1u);
  EXPECT_EQ(st.verify_rejected, 1u);
  EXPECT_EQ(st.combines, 1u);
  EXPECT_EQ(st.protocol_errors, 0u);
}

TEST_F(RpcDaemonTest, UnknownTenantAndBadRequestsGetErrorsNotDisconnect) {
  auto km = keygen();
  RpcClient client("127.0.0.1", port());
  auto [msg, sig] = make_signed(km, "errors");

  // Unknown tenant: attributable error, connection stays up.
  EXPECT_THROW(client.verify_sync("nobody", msg, sig), RpcError);
  // Combine against a verify-only registration: error, connection stays up.
  EXPECT_FALSE(client.register_ro_key("pk-only", km.pk).get());
  EXPECT_THROW(
      client.combine_sync("pk-only", msg, first_partials(km, msg)),
      RpcError);
  // Combine without enough valid shares: the service's runtime_error crosses
  // the wire as RpcError. ("acme" shares pk-only's public key, so this
  // registration correctly reports a dedup.)
  EXPECT_TRUE(client.register_ro_committee("acme", km).get());
  auto parts = first_partials(km, msg);
  for (auto& p : parts) p = tamper(p);
  EXPECT_THROW(client.combine_sync("acme", msg, parts), RpcError);

  // The same connection still serves correct answers afterwards.
  EXPECT_TRUE(client.verify_sync("acme", msg, sig));
  EXPECT_FALSE(client.closed());
}

TEST_F(RpcDaemonTest, PkDigestDedupAcrossTenants) {
  auto km = keygen();
  RpcClient client("127.0.0.1", port());
  EXPECT_FALSE(client.register_ro_key("tenant-a", km.pk).get());
  // Same pk under 3 more names: every one rides the existing digest.
  EXPECT_TRUE(client.register_ro_key("tenant-b", km.pk).get());
  EXPECT_TRUE(client.register_ro_committee("tenant-c", km).get());
  EXPECT_TRUE(client.register_ro_key("tenant-d", km.pk).get());

  auto [msg, sig] = make_signed(km, "dedup");
  for (const char* t : {"tenant-a", "tenant-b", "tenant-c", "tenant-d"})
    EXPECT_TRUE(client.verify_sync(t, msg, sig));

  // One prepared entry serves all four tenants.
  auto cs = server_->verifier_cache().stats();
  EXPECT_EQ(cs.inserts, 1u);
  EXPECT_EQ(cs.deduped, 3u);
  EXPECT_EQ(cs.aliases, 4u);
  EXPECT_EQ(client.stats_sync().deduped_keys, 3u);
}

TEST_F(RpcDaemonTest, MalformedFrameClosesOnlyThatConnection) {
  auto km = keygen();
  RpcClient good("127.0.0.1", port());
  EXPECT_FALSE(good.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "survivor");

  {  // Garbage method id.
    RawConn raw(port());
    ByteWriter w;
    w.u8(0xEE);
    w.u64(1);
    Bytes framed;
    append_frame(framed, w.bytes());
    raw.send_all(framed);
    EXPECT_EQ(raw.read_to_eof(), 0u);  // closed without a response
  }
  {  // Oversized declared length.
    RawConn raw(port());
    Bytes evil = {0xff, 0xff, 0xff, 0xff, 'x'};
    raw.send_all(evil);
    EXPECT_EQ(raw.read_to_eof(), 0u);
  }
  {  // Well-formed header, truncated body (trailing bytes missing).
    RawConn raw(port());
    ByteWriter w;
    encode_request_header(w, Method::kVerify, 3);
    w.u32(1000);  // claims a 1000-byte key, then nothing
    Bytes framed;
    append_frame(framed, w.bytes());
    raw.send_all(framed);
    EXPECT_EQ(raw.read_to_eof(), 0u);
  }

  // The well-behaved client is unaffected.
  EXPECT_TRUE(good.verify_sync("acme", msg, sig));
  EXPECT_GE(server_->snapshot_stats().protocol_errors, 3u);
}

// Seeded fuzz-style sweep: mutate valid frames (truncate, bit-flip, inflate
// the length prefix), fire them at the daemon, and assert it never crashes,
// never stages oversized buffers, and still answers well-formed requests
// afterwards. Failures reproduce with the logged seed via BNR_RPC_FUZZ_SEED.
TEST_F(RpcDaemonTest, FuzzedFramesNeverKillTheDaemon) {
  auto km = keygen(3, 1);
  RpcClient good("127.0.0.1", port());
  EXPECT_FALSE(good.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "fuzz");

  uint64_t seed = 0xF0225;
  if (const char* env = std::getenv("BNR_RPC_FUZZ_SEED"))
    seed = std::strtoull(env, nullptr, 0);
  printf("fuzz seed: %llu (BNR_RPC_FUZZ_SEED reproduces)\n",
         (unsigned long long)seed);
  Rng fuzz_rng("rpc-fuzz-" + std::to_string(seed));

  // Corpus of valid frames covering every method.
  std::vector<Bytes> corpus;
  {
    auto frame = [](Bytes payload) {
      Bytes f;
      append_frame(f, payload);
      return f;
    };
    corpus.push_back(frame(encode_empty_request(Method::kPing, 1)));
    corpus.push_back(frame(encode_empty_request(Method::kStats, 2)));
    corpus.push_back(
        frame(encode_verify(3, {"acme", msg, sig.serialize()})));
    BatchVerifyRequest b{"acme", {{msg, sig.serialize()}}};
    corpus.push_back(frame(encode_batch_verify(4, b)));
    CombineRequest c{"acme", msg, {}};
    for (const auto& p : first_partials(km, msg))
      c.partials.push_back(p.serialize());
    corpus.push_back(frame(encode_combine(5, c)));
    RegisterTenantRequest r;
    r.key = "fuzz-tenant";
    r.scheme = static_cast<uint8_t>(SchemeId::kRo);
    r.pk = km.pk.serialize();
    corpus.push_back(frame(encode_register(6, r)));
  }

  constexpr int kRounds = 120;
  for (int round = 0; round < kRounds; ++round) {
    Bytes mutated = corpus[fuzz_rng.uniform(corpus.size())];
    switch (fuzz_rng.uniform(3)) {
      case 0:  // truncate somewhere (possibly mid-header)
        mutated.resize(fuzz_rng.uniform(mutated.size()) + 1);
        break;
      case 1: {  // flip 1-8 bits anywhere
        size_t flips = 1 + fuzz_rng.uniform(8);
        for (size_t f = 0; f < flips; ++f)
          mutated[fuzz_rng.uniform(mutated.size())] ^=
              uint8_t(1u << fuzz_rng.uniform(8));
        break;
      }
      case 2: {  // inflate/deflate the length prefix
        uint32_t fake = uint32_t(fuzz_rng.next_u64());
        mutated[0] = uint8_t(fake >> 24);
        mutated[1] = uint8_t(fake >> 16);
        mutated[2] = uint8_t(fake >> 8);
        mutated[3] = uint8_t(fake);
        break;
      }
    }
    RawConn raw(port());
    raw.send_all(mutated);
    ::shutdown(raw.fd, SHUT_WR);
    raw.read_to_eof();  // whatever happens, the daemon must move on
  }

  // Alive, sane, and still correct for honest traffic.
  EXPECT_TRUE(good.verify_sync("acme", msg, sig));
  EXPECT_FALSE(good.closed());
  auto st = server_->snapshot_stats();
  // The daemon never staged a buffer beyond one frame per connection; its
  // resident cache is the one tenant entry, not fuzz garbage.
  EXPECT_LE(st.cache_resident_entries, 4u);
}

TEST_F(RpcDaemonTest, ConcurrentClientsWithAttributedFailures) {
  auto km = keygen(5, 2);
  {
    RpcClient reg("127.0.0.1", port());
    EXPECT_FALSE(reg.register_ro_committee("acme", km).get());
  }
  auto [msg, sig] = make_signed(km, "concurrent");
  Signature bad = forge(sig);

  constexpr int kClients = 5, kReqs = 40;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl)
    clients.emplace_back([&, cl] {
      RpcClient client("127.0.0.1", port());
      // Pipelined: all requests in flight at once, resolved out of order by
      // the daemon's per-tenant folds.
      std::vector<std::pair<std::future<bool>, bool>> futs;
      for (int j = 0; j < kReqs; ++j) {
        bool valid = (j + cl) % 3 != 0;
        futs.emplace_back(
            client.verify("acme", msg, valid ? sig : bad), valid);
      }
      // A combine rides alongside on every connection, with one tampered
      // partial that must be attributed without spoiling the result.
      Bytes m = to_bytes("combine from client " + std::to_string(cl));
      auto parts = partials(km, m, {1, 2, 3, 4});
      parts[1] = tamper(parts[1]);
      std::vector<uint32_t> cheaters;
      Signature combined = client.combine_sync("acme", m, parts, &cheaters);
      if (!scheme.verify(km.pk, m, combined)) wrong.fetch_add(1);
      if (cheaters != std::vector<uint32_t>{2}) wrong.fetch_add(1);
      for (auto& [f, expect] : futs)
        if (f.get() != expect) wrong.fetch_add(1);
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);

  auto vs = server_->verify_stats();
  EXPECT_EQ(vs.submitted, uint64_t(kClients) * kReqs);
  EXPECT_EQ(vs.accepted + vs.rejected, vs.submitted);
  // Pipelining actually batched: far fewer folds than requests.
  EXPECT_LT(vs.batches, vs.submitted);
}

TEST_F(RpcDaemonTest, MidRequestDisconnectLeavesDaemonHealthy) {
  auto km = keygen(3, 1);
  RpcClient good("127.0.0.1", port());
  EXPECT_FALSE(good.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "disconnect");

  for (int round = 0; round < 8; ++round) {
    // A client fires a burst of requests and vanishes without draining its
    // responses (drain_timeout 0 = the destructor abandons everything
    // immediately); the daemon-side completions for the dead socket must be
    // dropped on the floor.
    ClientConfig doomed_cfg;
    doomed_cfg.drain_timeout = std::chrono::milliseconds(0);
    auto doomed =
        std::make_unique<RpcClient>("127.0.0.1", port(), doomed_cfg);
    std::vector<std::future<bool>> futs;
    for (int j = 0; j < 16; ++j)
      futs.push_back(doomed->verify("acme", msg, sig));
    doomed.reset();  // closes the socket with everything in flight
    // Every future either got a real answer before the teardown or failed
    // fast with the teardown's ProtocolError; none may hang.
    int answered = 0, failed = 0;
    for (auto& f : futs) {
      try {
        f.get();
        ++answered;
      } catch (const std::exception&) {
        ++failed;
      }
    }
    EXPECT_EQ(answered + failed, 16);
  }
  // Half-written frame, then hard disconnect.
  {
    RawConn raw(port());
    Bytes partial = {0x00, 0x00, 0x01};  // 3 of 4 length bytes
    raw.send_all(partial);
  }
  EXPECT_TRUE(good.verify_sync("acme", msg, sig));
  server_->verifier_cache().stats();  // still consistent under the shard locks
}

// Every scheme the registry serves — RO, DLIN, Agg, BLS — is provisioned
// and served through the SAME registry-dispatched daemon path: register a
// committee, verify (accept + reject), combine over the wire, and check the
// per-scheme stats row. Adding a plugin extends this loop automatically.
TEST_F(RpcDaemonTest, AllRegisteredSchemesServeOverTheWire) {
  RpcClient client("127.0.0.1", port());
  Bytes msg = to_bytes("wire: all schemes");
  Bytes other = to_bytes("wire: a different message");
  Rng sample_rng("all-schemes-wire");

  for (const Scheme* sch : server_->registry().schemes()) {
    SCOPED_TRACE(std::string(sch->name()));
    SchemeSample good = sch->make_sample(3, 1, msg, sample_rng);
    SchemeSample wrong = sch->make_sample(3, 1, other, sample_rng);
    std::string tenant = "tenant-" + std::string(sch->name());
    EXPECT_FALSE(
        client.register_committee(tenant, sch->id(), good.committee)
            .get());

    // Verify: the right signature accepts, a signature on another message
    // (same sch, same encoding) rejects.
    EXPECT_TRUE(client.verify_bytes(tenant, msg, good.sig).get());
    EXPECT_FALSE(client.verify_bytes(tenant, msg, wrong.sig).get());

    // Combine over the wire reproduces a signature the sch accepts.
    CombineResult r =
        client.combine_bytes(tenant, msg, good.partials).get();
    EXPECT_TRUE(r.cheaters.empty());
    auto verifier = sch->make_verifier(good.committee.pk);
    EXPECT_TRUE(verifier->verify(msg, sch->parse_signature(r.sig)));

    // The per-sch stats row attributes exactly this sch's traffic.
    auto row = client.stats_sync().scheme_row(sch->id());
    EXPECT_EQ(row.tenants, 1u);
    EXPECT_EQ(row.verify_submitted, 2u);
    EXPECT_EQ(row.verify_accepted, 1u);
    EXPECT_EQ(row.verify_rejected, 1u);
    EXPECT_EQ(row.combines, 1u);
    EXPECT_GE(row.cache_lookups, row.cache_misses);
    EXPECT_GE(row.cache_misses, 1u);  // first group prepared its verifier
  }

  // The global fields are the sums of the rows.
  auto st = client.stats_sync();
  uint64_t sum_submitted = 0, sum_combines = 0, sum_tenants = 0;
  for (const auto& row : st.schemes) {
    sum_submitted += row.verify_submitted;
    sum_combines += row.combines;
    sum_tenants += row.tenants;
  }
  EXPECT_EQ(st.verify_submitted, sum_submitted);
  EXPECT_EQ(st.combines, sum_combines);
  EXPECT_EQ(st.tenants, sum_tenants);
}

TEST_F(RpcDaemonTest, AdminTokenGatesRegistration) {
  // A daemon with an admin token: REGISTER without (or with a wrong) token
  // is an attributable error, counted, and registers nothing; the right
  // token works; VERIFY needs no token.
  service::ThreadPool pool(2);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = "rpc-daemon/v1";
  cfg.admin_token = "super-secret";
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  RpcServer server(cfg, pool);
  std::thread serving([&] { server.run(); });

  auto km = keygen(3, 1);
  auto [msg, sig] = make_signed(km, "authed");
  {
    RpcClient anon("127.0.0.1", server.port());
    EXPECT_THROW(anon.register_ro_committee("acme", km).get(), RpcError);
    anon.set_admin_token("wrong-guess");
    EXPECT_THROW(anon.register_ro_committee("acme", km).get(), RpcError);
    // Nothing was registered.
    EXPECT_THROW(anon.verify_sync("acme", msg, sig), RpcError);

    RpcClient admin("127.0.0.1", server.port());
    admin.set_admin_token("super-secret");
    EXPECT_FALSE(admin.register_ro_committee("acme", km).get());
    // Data-plane requests are not gated — the anonymous client verifies.
    EXPECT_TRUE(anon.verify_sync("acme", msg, sig));

    auto st = anon.stats_sync();
    EXPECT_EQ(st.auth_failures, 2u);
    EXPECT_EQ(st.tenants, 1u);
    EXPECT_EQ(st.protocol_errors, 0u);
  }
  server.stop();
  serving.join();
}

TEST_F(RpcDaemonTest, ConnectionCapAcceptsAndCloses) {
  service::ThreadPool pool(2);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = "rpc-daemon/v1";
  cfg.max_connections = 2;
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  RpcServer server(cfg, pool);
  std::thread serving([&] { server.run(); });

  {
    // Two connections fit under the cap and stay serviceable.
    RpcClient a("127.0.0.1", server.port());
    RpcClient b("127.0.0.1", server.port());
    a.ping().get();
    b.ping().get();

    // The third is accepted and immediately closed: clean EOF, no service.
    RawConn overflow(server.port());
    Bytes ping;
    append_frame(ping, encode_empty_request(Method::kPing, 1));
    overflow.send_all(ping);
    EXPECT_EQ(overflow.read_to_eof(), 0u);

    auto st = a.stats_sync();
    EXPECT_GE(st.conns_rejected, 1u);
    EXPECT_EQ(st.protocol_errors, 0u);
    // The capped connections keep working.
    b.ping().get();
  }
  server.stop();
  serving.join();
}

// `connections` is the LIFETIME accept counter and `open_connections` the
// live gauge: connect/disconnect must move the gauge both ways while the
// lifetime counter only ever grows. (Before the split, STATS reported the
// accept total under a name that read like a live-connection count.)
TEST_F(RpcDaemonTest, OpenConnectionsGaugeVsLifetimeAccepts) {
  RpcClient a("127.0.0.1", port());
  auto st1 = a.stats_sync();
  EXPECT_GE(st1.connections, 1u);
  EXPECT_GE(st1.open_connections, 1u);

  uint64_t lifetime_before;
  {
    RpcClient b("127.0.0.1", port());
    b.ping().get();
    auto st2 = a.stats_sync();
    lifetime_before = st2.connections;
    EXPECT_GE(st2.connections, st1.connections + 1);
    EXPECT_GE(st2.open_connections, 2u);
  }
  // b's socket closed: the gauge falls back while the lifetime counter
  // NEVER decrements. The close is observed asynchronously by b's loop.
  DaemonStats st3;
  for (int spin = 0; spin < 500; ++spin) {
    st3 = a.stats_sync();
    if (st3.open_connections <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(st3.open_connections, 1u);
  EXPECT_GE(st3.connections, lifetime_before);
}

// Regression for the cap race: the old admission path did a relaxed load
// check then a separate fetch_add, so two SO_REUSEPORT accept loops could
// each pass the check at cap-1 and BOTH admit. Admitted connections are
// never force-closed later, so any over-admit persists — storm the cap from
// many threads, hold every accepted socket open, and assert the live gauge
// never exceeds the cap once every attempt is accounted for.
TEST_F(RpcDaemonTest, MultiLoopAcceptStormNeverExceedsCap) {
  service::ThreadPool pool(2);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = "rpc-daemon/v1";
  cfg.io_threads = 4;
  cfg.max_connections = 4;
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  RpcServer server(cfg, pool);
  std::thread serving([&] { server.run(); });

  constexpr int kRounds = 8;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;  // 12 attempts/round vs a cap of 4
  for (int round = 0; round < kRounds; ++round) {
    auto st0 = server.snapshot_stats();
    const uint64_t base = st0.connections + st0.conns_rejected;
    std::vector<std::unique_ptr<RawConn>> held[kThreads];
    std::vector<std::thread> stormers;
    for (int t = 0; t < kThreads; ++t)
      stormers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          try {
            held[t].push_back(std::make_unique<RawConn>(server.port()));
          } catch (const std::exception&) {
            // connect refused under load: counts as neither accept nor
            // rejection, handled by the drain loop below
          }
        }
      });
    for (auto& th : stormers) th.join();
    size_t attempts = 0;
    for (auto& v : held) attempts += v.size();

    // Wait until every connect attempt is attributed (accepted into a loop
    // or rejected at the cap), then the gauge must respect the cap.
    DaemonStats st;
    for (int spin = 0; spin < 1000; ++spin) {
      st = server.snapshot_stats();
      if (st.connections + st.conns_rejected >= base + attempts) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_LE(st.open_connections, cfg.max_connections)
        << "round " << round << ": cap breached";

    for (auto& v : held) v.clear();  // drop the held sockets
    // Drain to zero before the next round so each round starts clean.
    for (int spin = 0; spin < 1000; ++spin) {
      if (server.snapshot_stats().open_connections == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.snapshot_stats().open_connections, 0u);
  }
  server.stop();
  serving.join();
}

TEST_F(RpcDaemonTest, GracefulShutdownDrainsInFlightBatches) {
  auto km = keygen(3, 1);
  RpcClient client("127.0.0.1", port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "drain");

  // A pipelined burst, then stop() races the responses.
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < 64; ++j) futs.push_back(client.verify("acme", msg, sig));
  server_->stop();
  serving_.join();

  // Every request the daemon READ is answered or failed — none hang.
  size_t answered = 0;
  for (auto& f : futs) {
    try {
      EXPECT_TRUE(f.get());
      ++answered;
    } catch (const std::exception&) {
      // raced the shutdown before the daemon read it
    }
  }
  // The services drained: everything submitted was resolved.
  auto vs = server_->verify_stats();
  EXPECT_EQ(vs.accepted + vs.rejected, vs.submitted);
  EXPECT_LE(answered, 64u);
  server_.reset();  // destructor after run() returned: clean teardown
}

// ---------------------------------------------------------------------------
// Multi-loop front end: N SO_REUSEPORT acceptor/IO loops on one port

// Concurrent clients land across all four loops (the kernel hashes each
// connect onto one listener), every request answers correctly, and a
// graceful stop() drains EVERY loop: no pipelined request vanishes because
// its connection happened to live on loop 2.
TEST_F(RpcDaemonTest, MultiLoopServesConcurrentClientsAndDrainsAllLoops) {
  service::ThreadPool pool(4);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = "rpc-daemon/v1";
  cfg.io_threads = 4;
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  RpcServer server(cfg, pool);
  EXPECT_EQ(server.io_loops(), 4u);
  std::thread serving([&] { server.run(); });

  auto km = keygen(3, 1);
  auto [msg, sig] = make_signed(km, "multi-loop");
  Signature bad = forge(sig);
  {
    RpcClient reg("127.0.0.1", server.port());
    EXPECT_FALSE(reg.register_ro_committee("acme", km).get());
  }

  constexpr int kClients = 8, kReqs = 24;
  std::atomic<int> wrong{0};
  {
    // Keep every client alive until its futures resolve, so the drain path
    // has live connections on (with overwhelming probability) every loop.
    std::vector<std::thread> clients;
    for (int cl = 0; cl < kClients; ++cl)
      clients.emplace_back([&, cl] {
        RpcClient client("127.0.0.1", server.port());
        std::vector<std::pair<std::future<bool>, bool>> futs;
        for (int j = 0; j < kReqs; ++j) {
          bool valid = (j + cl) % 4 != 0;
          futs.emplace_back(client.verify("acme", msg, valid ? sig : bad),
                            valid);
        }
        for (auto& [f, expect] : futs)
          if (f.get() != expect) wrong.fetch_add(1);
      });
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(wrong.load(), 0);

  // The per-loop accept counters sum to exactly the connections opened:
  // one registration client plus the eight traffic clients.
  auto st = server.snapshot_stats();
  EXPECT_EQ(st.connections, uint64_t(kClients) + 1);
  EXPECT_EQ(st.protocol_errors, 0u);

  server.stop();
  serving.join();
  auto vs = server.verify_stats();
  EXPECT_EQ(vs.submitted, uint64_t(kClients) * kReqs);
  EXPECT_EQ(vs.accepted + vs.rejected + vs.deadline_sheds, vs.submitted);
}

// Cross-loop accounting is EXACT, not approximate: each loop owns a counter
// slice, and the STATS/HEALTH snapshots must sum the slices so that traffic
// deliberately spread over separate connections (= separate loops) is fully
// attributed: frames, protocol errors, arrival sheds, and the service-side
// submitted == accepted + rejected + deadline_sheds split.
TEST_F(RpcDaemonTest, PerLoopCountersAggregateExactlyAcrossLoops) {
  service::ThreadPool pool(4);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = "rpc-daemon/v1";
  cfg.io_threads = 4;
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  RpcServer server(cfg, pool);
  std::thread serving([&] { server.run(); });

  auto km = keygen(3, 1);
  auto [msg, sig] = make_signed(km, "per-loop");
  RpcClient client("127.0.0.1", server.port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());

  // Sends one framed payload on a FRESH connection (its own loop) and reads
  // back one response frame.
  auto raw_round_trip = [&](const Bytes& payload) {
    RawConn raw(server.port());
    Bytes framed;
    append_frame(framed, payload);
    raw.send_all(framed);
    uint8_t chunk[4096];
    FrameBuffer fb;
    Bytes frame;
    for (;;) {
      ssize_t n = ::recv(raw.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return Bytes{};
      fb.feed({chunk, size_t(n)});
      if (fb.next(frame) == FrameBuffer::Result::kFrame) return frame;
    }
  };

  // Budget-0 requests are shed at arrival by whichever loop reads them;
  // each rides its own connection so the sheds land on multiple loops.
  constexpr int kSheds = 8;
  for (int j = 0; j < kSheds; ++j) {
    VerifyRequest req{"acme", msg, sig.serialize()};
    Bytes resp = raw_round_trip(encode_verify(uint64_t(j + 1), req, 0u));
    ASSERT_FALSE(resp.empty());
    ByteReader rd(resp);
    EXPECT_EQ(decode_response_header(rd).status, Status::kShed);
  }
  // Garbage frames likewise, one per connection.
  constexpr int kGarbage = 5;
  for (int j = 0; j < kGarbage; ++j) {
    RawConn raw(server.port());
    ByteWriter w;
    w.u8(0xEE);
    w.u64(uint64_t(j));
    Bytes framed;
    append_frame(framed, w.bytes());
    raw.send_all(framed);
    EXPECT_EQ(raw.read_to_eof(), 0u);
  }
  // Real traffic on top.
  constexpr int kVerifies = 20;
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < kVerifies; ++j)
    futs.push_back(client.verify("acme", msg, sig));
  for (auto& f : futs) EXPECT_TRUE(f.get());

  HealthStats health = server.snapshot_health();
  EXPECT_EQ(health.shed_arrival, uint64_t(kSheds));

  auto st = server.snapshot_stats();
  EXPECT_EQ(st.protocol_errors, uint64_t(kGarbage));
  // 1 client + kSheds + kGarbage raw connections, each accepted by its loop.
  EXPECT_EQ(st.connections, 1u + kSheds + kGarbage);
  // Every parsed frame is counted by the loop that read it: registration +
  // verifies + shed requests + the final STATS/HEALTH probes themselves.
  EXPECT_GE(st.frames_in, 1u + kVerifies + kSheds);

  server.stop();
  serving.join();
  auto vs = server.verify_stats();
  EXPECT_EQ(vs.submitted, uint64_t(kVerifies));
  EXPECT_EQ(vs.accepted + vs.rejected + vs.deadline_sheds, vs.submitted);
  EXPECT_EQ(vs.accepted, uint64_t(kVerifies));
}

// ---------------------------------------------------------------------------
// The METRICS plane (PR 9)

TEST(Wire, MetricsSnapshotRoundTrip) {
  obs::MetricsSnapshot m;
  m.points.push_back({"bnr_x_total", "", obs::MetricKind::kCounter, 42});
  m.points.push_back(
      {"bnr_y", "scheme=\"ro\"", obs::MetricKind::kGauge, 7});
  obs::Histogram h;
  h.record(500);
  h.record(1'000'000);
  m.histograms.push_back({"bnr_lat_seconds", "", h.snapshot()});
  obs::TraceRecord t;
  t.request_id = 99;
  t.method = uint8_t(Method::kVerify);
  t.stage_ns[size_t(obs::Stage::kReceived)] = 1;
  t.stage_ns[size_t(obs::Stage::kFlushed)] = 123456 + 1;
  t.total_ns = 123456;
  m.slow_traces.push_back(t);

  Bytes enc = encode_metrics_snapshot(m);
  ByteReader rd(enc);
  obs::MetricsSnapshot d = decode_metrics_snapshot(rd);
  EXPECT_EQ(rd.remaining(), 0u);
  ASSERT_EQ(d.points.size(), 2u);
  EXPECT_EQ(d.points[1].labels, "scheme=\"ro\"");
  EXPECT_EQ(d.points[0].value, 42u);
  ASSERT_EQ(d.histograms.size(), 1u);
  // Sparse bucket transport reconstructs the identical dense snapshot:
  // same count/sum/max and the same percentile read-out.
  EXPECT_EQ(d.histograms[0].snap.count, 2u);
  EXPECT_EQ(d.histograms[0].snap.sum, 1'000'500u);
  EXPECT_EQ(d.histograms[0].snap.max, 1'000'000u);
  EXPECT_EQ(d.histograms[0].snap.percentile(0.5),
            m.histograms[0].snap.percentile(0.5));
  ASSERT_EQ(d.slow_traces.size(), 1u);
  EXPECT_EQ(d.slow_traces[0].request_id, 99u);
  EXPECT_EQ(d.slow_traces[0].total_ns, 123456u);
  EXPECT_TRUE(d.slow_traces[0].has(obs::Stage::kFlushed));
  EXPECT_FALSE(d.slow_traces[0].has(obs::Stage::kQueued));
}

// The wire histogram's percentiles are validated against a CLIENT-side
// sorted-vector oracle: the client times every round trip itself, and since
// the server-recorded verify latency is a strict sub-interval of the
// client's wall time for that same request, every order statistic of the
// server distribution is bounded by the client's (plus the histogram's
// 1/64 bucket quantization). This pins the whole chain — record on a pool
// worker, shard merge, sparse encode, decode — to externally-observed time.
TEST_F(RpcDaemonTest, MetricsRoundTripAgainstClientOracle) {
  bool obs_was = obs::enabled();
  obs::set_enabled(true);
  auto km = keygen(3, 1);
  RpcClient client("127.0.0.1", port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "metrics oracle");
  Signature bad = forge(sig);

  constexpr int kReqs = 48;
  std::vector<uint64_t> client_ns;
  for (int i = 0; i < kReqs; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    bool accept = client.verify_sync("acme", msg, (i % 4) ? sig : bad);
    client_ns.push_back(uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    EXPECT_EQ(accept, (i % 4) != 0);
  }

  auto m = client.metrics_sync();
  const obs::MetricHistogram* vh =
      m.find_histogram("bnr_verify_latency_seconds", "scheme=\"ro\"");
  ASSERT_NE(vh, nullptr);
  // Every verdict — and ONLY verdicts — landed in the histogram.
  EXPECT_EQ(vh->snap.count, uint64_t(kReqs));
  std::sort(client_ns.begin(), client_ns.end());
  for (double q : {0.5, 0.99}) {
    size_t rank = size_t(q * kReqs);
    if (rank < size_t(kReqs)) ++rank;
    uint64_t client_q = client_ns[rank - 1];
    uint64_t server_q = vh->snap.percentile(q);
    // Server-side latency for request i <= client wall time for request i,
    // so the server's q-quantile cannot exceed the client's; allow the
    // bucket upper-bound overstatement (one sub-bucket width).
    EXPECT_LE(server_q, client_q + client_q / obs::kSubBuckets + 1) << q;
    EXPECT_GT(server_q, 0u) << q;
  }
  EXPECT_LE(vh->snap.max, client_ns.back() + client_ns.back() / 64 + 1);

  // The structured and text planes agree on the same scrape.
  std::string text = client.metrics_text_sync();
  EXPECT_NE(text.find("# TYPE bnr_verify_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("bnr_verify_latency_seconds_count{scheme=\"ro\"} " +
                std::to_string(kReqs)),
      std::string::npos)
      << text.substr(0, 512);

  // Slow-trace ring: every record is a COMPLETED request with monotone
  // stage offsets ending at flush.
  ASSERT_FALSE(m.slow_traces.empty());
  for (const auto& t : m.slow_traces) {
    EXPECT_TRUE(t.has(obs::Stage::kReceived));
    EXPECT_TRUE(t.has(obs::Stage::kFlushed));
    EXPECT_EQ(t.total_ns, t.offset_ns(obs::Stage::kFlushed));
    if (t.has(obs::Stage::kCryptoStart) && t.has(obs::Stage::kCryptoDone)) {
      EXPECT_LE(t.offset_ns(obs::Stage::kCryptoStart),
                t.offset_ns(obs::Stage::kCryptoDone));
    }
  }
  obs::set_enabled(obs_was);
}

TEST_F(RpcDaemonTest, MetricsUndefinedFlagBitsAreProtocolError) {
  RawConn raw(port());
  Bytes framed;
  append_frame(framed, encode_metrics_request(1, 0x80));  // undefined bit
  raw.send_all(framed);
  // The daemon closes the connection rather than guessing at future flags.
  EXPECT_EQ(raw.read_to_eof(), 0u);
  auto st = server_->snapshot_stats();
  EXPECT_EQ(st.protocol_errors, 1u);
}

// Satellite (a): the accounting identity  submitted == accepted + rejected
// + sheds + errors + in_progress  must hold in EVERY snapshot, not just at
// drain — STATS is polled from a second connection while a load thread
// keeps requests permanently mid-flight, so snapshots routinely catch
// requests between submit and verdict.
TEST_F(RpcDaemonTest, StatsIdentityHoldsInEverySnapshotUnderLoad) {
  auto km = keygen(3, 1);
  RpcClient load_client("127.0.0.1", port());
  EXPECT_FALSE(load_client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "coherence");
  Signature bad = forge(sig);

  std::atomic<bool> stop{false};
  std::thread load([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::future<bool>> futs;
      for (int j = 0; j < 16; ++j)
        futs.push_back(load_client.verify("acme", msg, (j % 3) ? sig : bad));
      for (auto& f : futs) f.get();
      ++i;
    }
  });
  // COMBINE load alongside, so the combine counters move between polls too.
  // At least one round runs even when the thread starts after the polls.
  RpcClient combine_client("127.0.0.1", port());
  auto parts = first_partials(km, msg);
  std::thread combines([&] {
    do {
      std::vector<std::future<CombineResult>> futs;
      for (int j = 0; j < 4; ++j)
        futs.push_back(combine_client.combine_raw("acme", msg, parts));
      for (auto& f : futs) f.get();
    } while (!stop.load(std::memory_order_relaxed));
  });

  RpcClient probe("127.0.0.1", port());
  for (int poll = 0; poll < 60; ++poll) {
    auto st = probe.stats_sync();
    // The one-lock snapshot makes this exact, never "eventually".
    ASSERT_EQ(st.verify_submitted,
              st.verify_accepted + st.verify_rejected + st.verify_sheds +
                  st.verify_errors + st.verify_in_progress)
        << "poll " << poll;
    auto row = st.scheme_row(SchemeId::kRo);
    ASSERT_EQ(row.verify_submitted,
              row.verify_accepted + row.verify_rejected + row.verify_sheds +
                  row.verify_errors + row.verify_in_progress)
        << "poll " << poll;
    uint64_t row_combines = 0;
    for (const auto& r : st.schemes) row_combines += r.combines;
    ASSERT_EQ(st.combines, row_combines) << "poll " << poll;
  }
  stop.store(true);
  load.join();
  combines.join();
  EXPECT_GT(probe.stats_sync().combines, 0u);

  // Drained: in_progress settles to zero and the identity still holds.
  auto st = probe.stats_sync();
  EXPECT_EQ(st.verify_in_progress, 0u);
  EXPECT_EQ(st.verify_submitted, st.verify_accepted + st.verify_rejected +
                                     st.verify_sheds + st.verify_errors);
}

}  // namespace
}  // namespace bnr

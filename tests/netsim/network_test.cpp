#include "netsim/network.hpp"

#include <gtest/gtest.h>

namespace marcopolo::netsim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  Simulator sim;
  Network net{sim, /*loss_seed=*/1};
};

TEST_F(NetworkTest, RequestResponseRoundtrip) {
  const auto server = net.attach(Ipv4Addr(10, 0, 0, 1), {51.5, -0.1},
                                 [](const HttpRequest& req) {
                                   EXPECT_EQ(req.path, "/hello");
                                   return HttpResponse::text("world");
                                 });
  (void)server;
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {40.7, -74.0},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  bool got = false;
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{"GET", "h", "/hello",
                                                      {}, "", {}},
           [&](std::optional<HttpResponse> resp) {
             ASSERT_TRUE(resp.has_value());
             EXPECT_EQ(resp->body, "world");
             EXPECT_TRUE(resp->ok());
             got = true;
           });
  sim.run();
  EXPECT_TRUE(got);
}

TEST_F(NetworkTest, ServerSeesClientSourceAddress) {
  Ipv4Addr seen{};
  net.attach(Ipv4Addr(10, 0, 0, 1), {}, [&](const HttpRequest& req) {
    seen = req.source;
    return HttpResponse::text("ok");
  });
  const auto client =
      net.attach(Ipv4Addr(10, 9, 9, 9), {}, [](const HttpRequest&) {
        return HttpResponse::not_found();
      });
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [](std::optional<HttpResponse>) {});
  sim.run();
  EXPECT_EQ(seen, Ipv4Addr(10, 9, 9, 9));
}

TEST_F(NetworkTest, UnknownDestinationReportsFailure) {
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  bool failed = false;
  net.send(client, Ipv4Addr(99, 99, 99, 99), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             EXPECT_FALSE(resp.has_value());
             failed = true;
           });
  sim.run();
  EXPECT_TRUE(failed);
}

TEST_F(NetworkTest, LatencyScalesWithDistance) {
  net.attach(Ipv4Addr(10, 0, 0, 1), {35.68, 139.69},  // Tokyo server
             [](const HttpRequest&) { return HttpResponse::text("x"); });
  const auto near_client = net.attach(Ipv4Addr(10, 0, 0, 2), {34.69, 135.50},
                                      [](const HttpRequest&) {
                                        return HttpResponse::not_found();
                                      });
  const auto far_client = net.attach(Ipv4Addr(10, 0, 0, 3), {40.71, -74.01},
                                     [](const HttpRequest&) {
                                       return HttpResponse::not_found();
                                     });
  TimePoint near_done{};
  TimePoint far_done{};
  net.send(near_client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse>) { near_done = sim.now(); });
  net.send(far_client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse>) { far_done = sim.now(); });
  sim.run();
  EXPECT_LT(near_done - kEpoch, far_done - kEpoch);
}

TEST_F(NetworkTest, FullRequestLossTimesOut) {
  net.set_loss_model(LossModel{1.0, 0.0});
  net.set_timeout(seconds(5));
  net.attach(Ipv4Addr(10, 0, 0, 1), {},
             [](const HttpRequest&) { return HttpResponse::text("x"); });
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  bool failed = false;
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             EXPECT_FALSE(resp.has_value());
             failed = true;
           });
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_GE(sim.now() - kEpoch, seconds(5));
}

TEST_F(NetworkTest, ResponseLossStillReachesServer) {
  net.set_loss_model(LossModel{0.0, 1.0});
  int server_hits = 0;
  net.attach(Ipv4Addr(10, 0, 0, 1), {}, [&](const HttpRequest&) {
    ++server_hits;
    return HttpResponse::text("x");
  });
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  bool failed = false;
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             failed = !resp.has_value();
           });
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(server_hits, 1);  // the request arrived; only the reply vanished
}

// A plane that reroutes one address to a chosen endpoint — the shape the
// attack plane uses.
class PinnedPlane final : public ForwardingPlane {
 public:
  Ipv4Addr target;
  EndpointId destination;
  EndpointId fallback;
  [[nodiscard]] EndpointId resolve(EndpointId, Ipv4Addr dst) const override {
    return dst == target ? destination : fallback;
  }
};

TEST_F(NetworkTest, ForwardingPlaneOverridesOwnership) {
  const auto legit = net.attach(Ipv4Addr(10, 0, 0, 1), {},
                                [](const HttpRequest&) {
                                  return HttpResponse::text("legit");
                                });
  const auto hijacker = net.attach(Ipv4Addr(10, 0, 0, 1), {},
                                   [](const HttpRequest&) {
                                     return HttpResponse::text("hijacked");
                                   });
  (void)legit;
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  PinnedPlane plane;
  plane.target = Ipv4Addr(10, 0, 0, 1);
  plane.destination = hijacker;
  net.set_forwarding_plane(&plane);

  std::string body;
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             ASSERT_TRUE(resp.has_value());
             body = resp->body;
           });
  sim.run();
  EXPECT_EQ(body, "hijacked");

  // Restoring default forwarding reaches the first owner again.
  net.set_forwarding_plane(nullptr);
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             ASSERT_TRUE(resp.has_value());
             body = resp->body;
           });
  sim.run();
  EXPECT_EQ(body, "legit");
}

TEST_F(NetworkTest, HandlerSwapAffectsInFlightDelivery) {
  const auto server = net.attach(Ipv4Addr(10, 0, 0, 1), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::text("old");
                                 });
  const auto client = net.attach(Ipv4Addr(10, 0, 0, 2), {},
                                 [](const HttpRequest&) {
                                   return HttpResponse::not_found();
                                 });
  std::string body;
  net.send(client, Ipv4Addr(10, 0, 0, 1), HttpRequest{},
           [&](std::optional<HttpResponse> resp) {
             ASSERT_TRUE(resp.has_value());
             body = resp->body;
           });
  // Swap before the request delivers: handler lookup happens at delivery.
  net.set_handler(server, [](const HttpRequest&) {
    return HttpResponse::text("new");
  });
  sim.run();
  EXPECT_EQ(body, "new");
}

}  // namespace
}  // namespace marcopolo::netsim

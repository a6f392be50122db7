#include "cluster/backing_store.hpp"

#include <cmath>
#include <stdexcept>

namespace cdn::cluster {

double BackingStore::fetch(std::uint64_t id, std::uint64_t size) {
  const double ms = fetch_ms(id, size);
  fetches_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(size, std::memory_order_relaxed);
  // Quantize per fetch, then sum integers: the total is independent of
  // accumulation order and bitwise-stable across platforms.
  total_us_.fetch_add(static_cast<std::uint64_t>(std::llround(ms * 1000.0)),
                      std::memory_order_relaxed);
  return ms;
}

BackingStorePtr make_backing_store(const std::string& name,
                                   const tdc::LatencyModel& latency) {
  if (name == "origin") return std::make_unique<OriginStore>(latency);
  if (name == "remote") return std::make_unique<RemoteStore>(latency);
  if (name == "null") return std::make_unique<NullStore>();
  throw std::invalid_argument("make_backing_store: unknown store '" + name +
                              "'");
}

}  // namespace cdn::cluster

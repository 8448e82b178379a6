#include "src/obs/counters.h"

namespace bundler::obs {

void CounterRegistry::FreezeExposed() {
  for (const auto& [name, src] : exposed_) {
    owned_[name] = *src;
  }
  exposed_.clear();
}

void CounterRegistry::DumpTo(std::map<std::string, double>* out,
                             const std::string& prefix) const {
  for (const auto& [name, value] : owned_) {
    (*out)[prefix + name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : gauges_) {
    (*out)[prefix + name] = value;
  }
  for (const auto& [name, src] : exposed_) {
    (*out)[prefix + name] = static_cast<double>(*src);
  }
}

void CounterRegistry::AccumulateTo(std::map<std::string, double>* out,
                                   const std::string& prefix) const {
  for (const auto& [name, value] : owned_) {
    (*out)[prefix + name] += static_cast<double>(value);
  }
  for (const auto& [name, value] : gauges_) {
    (*out)[prefix + name] = value;
  }
  for (const auto& [name, src] : exposed_) {
    (*out)[prefix + name] += static_cast<double>(*src);
  }
}

}  // namespace bundler::obs

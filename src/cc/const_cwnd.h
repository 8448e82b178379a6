// Fixed congestion window, no reaction to the network. Used to emulate the
// idealized TCP proxy of §7.5: endhosts hold a constant window slightly
// above the path BDP (450 packets: the §7.1 path's 96 Mbit/s x 50 ms BDP is
// ~400), and the sendbox absorbs the excess.
#ifndef SRC_CC_CONST_CWND_H_
#define SRC_CC_CONST_CWND_H_

#include "src/cc/cc.h"

namespace bundler {

class ConstCwnd : public HostCc {
 public:
  static constexpr double kCwndPkts = 450.0;

  void OnAck(const AckSample& ack) override { (void)ack; }
  void OnLoss(const LossSample& loss) override { (void)loss; }
  double CwndPkts() const override { return kCwndPkts; }
  const char* name() const override { return "const_cwnd"; }
};

}  // namespace bundler

#endif  // SRC_CC_CONST_CWND_H_

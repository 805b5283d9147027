#include "audit.h"

#include <cstdlib>
#include <utility>

#include "sim/logging.h"
#include "sim/tx_event.h"

namespace sim {

bool
AuditEngine::fired(const std::string &check) const
{
    for (const AuditViolation &violation : log_) {
        if (violation.check == check)
            return true;
    }
    return false;
}

void
AuditEngine::fail(const char *check_id, std::string_view message,
                  Tick tick, CpuId cpu, ThreadId thread, std::int64_t stx,
                  std::int64_t dtx)
{
    AuditViolation violation;
    violation.check = check_id;
    violation.tick = tick;
    violation.cpu = cpu;
    violation.thread = thread;
    violation.sTx = stx;
    violation.dTx = dtx;
    violation.message = message;
    report(std::move(violation));
}

void
AuditEngine::report(AuditViolation violation)
{
    ++violationCount_;
    TxEvent event;
    event.kind = TxEventKind::Violation;
    event.tick = violation.tick;
    event.cpu = violation.cpu;
    event.thread = violation.thread;
    event.sTx = violation.sTx;
    event.dTx = violation.dTx;
    event.violation = &violation;
    for (TxObserver *observer : observers_) {
        if ((observer->kinds() & txEventBit(event.kind)) != 0)
            observer->onTxEvent(event);
    }
    if (mode_ == Mode::Panic) {
        sim_panic("audit violation [%s] at tick %llu "
                  "(cpu=%d thread=%d sTx=%lld dTx=%lld): %s",
                  violation.check.c_str(),
                  static_cast<unsigned long long>(violation.tick),
                  violation.cpu, violation.thread,
                  static_cast<long long>(violation.sTx),
                  static_cast<long long>(violation.dTx),
                  violation.message.c_str());
    }
    log_.push_back(std::move(violation));
}

bool
auditEnvEnabled()
{
    // lint:allow(wall-clock): getenv is read once at startup to
    // *enable* checking; the value never feeds simulated behavior
    // (audited runs are asserted byte-identical to unaudited ones).
    static const bool enabled = [] {
        const char *env = std::getenv("BFGTS_AUDIT");
        return env != nullptr && env[0] == '1';
    }();
    return enabled;
}

} // namespace sim

#include "common/world.h"

#include <utility>

#include "common/audit.h"
#include "common/log.h"

namespace imc::world {
namespace {

audit::Auditor process_wide_auditor;
constinit const Context kDefault{&process_wide_auditor};
constinit thread_local const Context* t_current = &kDefault;
void (*forward_chunks)(std::vector<trace::RunChunk>&) = nullptr;

}  // namespace

const Context& current() { return *t_current; }

Scope::Scope() : context_(*t_current), previous_(t_current) {
  t_current = &context_;
}

Scope::~Scope() {
  t_current = previous_;
  LogText* log = context_.log;
  if (log != nullptr && log != previous_->log && !log->empty()) {
    if (previous_->log != nullptr) {
      previous_->log->splice(std::move(*log));
    } else {
      write_log_output(*log);
      log->clear();
    }
  }
  if (context_.chunks != nullptr && context_.chunks != previous_->chunks &&
      forward_chunks != nullptr) {
    forward_chunks(*context_.chunks);
  }
}

void set_chunk_forwarder(void (*forward)(std::vector<trace::RunChunk>&)) {
  forward_chunks = forward;
}

}  // namespace imc::world

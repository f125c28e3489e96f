// One thread binding for every per-world service (imc::world).
//
// sweep::Pool runs independent worlds concurrently, so the services a world
// reports to are bound to the calling thread. They all live in one Context:
// world::current() is the innermost bound context, and a Scope binds a
// modified copy of it for its lifetime. DESIGN.md §16 states the contract.
#pragma once

#include <vector>

namespace imc {
class LogText;
namespace arena {
class Arena;
}
namespace audit {
class Auditor;
}
namespace fault {
class Injector;
}
namespace prof {
class Meter;
}
namespace repl {
class Coordinator;
}
namespace trace {
class Recorder;
struct RunChunk;
}  // namespace trace
}  // namespace imc

namespace imc::world {

struct Context {
  // Per-world fields: workflow::run sets every one of them for its world.
  audit::Auditor* auditor = nullptr;  // never null in current()
  trace::Recorder* recorder = nullptr;
  fault::Injector* injector = nullptr;
  repl::Coordinator* coordinator = nullptr;
  // Lane fields: bound by sweep lanes and inherited by the worlds they run.
  arena::Arena* arena = nullptr;                   // null: the global heap
  prof::Meter* meter = nullptr;                    // null: prof hooks inert
  LogText* log = nullptr;                          // null: stderr
  std::vector<trace::RunChunk>* chunks = nullptr;  // null: the trace sink
};

// The innermost bound context. Never null: with no Scope alive it is a
// default whose auditor is the process-wide fallback and whose other fields
// are null.
const Context& current();

// Binds a copy of the current context until destruction; override fields
// through operator->, which also works after construction (the copy is what
// current() returns). Scopes nest LIFO: the destructor restores the previous
// context, then forwards whatever this Scope's own log or chunk capture
// still holds to the restored context's capture, or to stderr / the trace
// sink, so nothing is dropped on an exception unwind. A capture must
// outlive the Scope that installs it.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Context* operator->() { return &context_; }

 private:
  Context context_;
  const Context* previous_;
};

// Installed by the trace library, which owns RunChunk: re-emits the chunks
// a Scope captured and nobody took, under the restored context.
void set_chunk_forwarder(void (*forward)(std::vector<trace::RunChunk>&));

}  // namespace imc::world

// must-flag: scoped-binding — world::Scope misused the three ways a guard
// can be, once per accessor family: a temporary that unbinds within the
// expression, a heap-allocated guard decoupled from its scope, and a guard
// constructed after an accessor already read the enclosing binding.
namespace world {
struct Context {};
const Context& current();
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Context* operator->();
};
}  // namespace world
namespace audit {
struct Auditor {};
Auditor& global();
}  // namespace audit
namespace trace {
struct Recorder {};
Recorder* global();
}  // namespace trace
namespace fault {
struct Injector {};
Injector* active();
}  // namespace fault
namespace repl {
struct Coordinator {};
Coordinator* active();
}  // namespace repl
namespace arena {
struct Arena {};
Arena* current();
}  // namespace arena
namespace prof {
struct Meter {};
Meter* meter();
}  // namespace prof

void world_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  world::current();                // ...so this reads the old context
}

void world_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  world::current();
}

void world_bound_too_late() {
  world::current();                // reads the old context
  world::Scope scope;              // FLAG: constructed after first use
}

void audit_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  audit::global();                 // ...so this reads the old auditor
}

void audit_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  audit::global();
}

void audit_bound_too_late() {
  audit::global();                 // reads the old auditor
  world::Scope scope;              // FLAG: constructed after first use
}

void trace_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  trace::global();                 // ...so this reads the old recorder
}

void trace_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  trace::global();
}

void trace_bound_too_late() {
  trace::global();                 // reads the old recorder
  world::Scope scope;              // FLAG: constructed after first use
}

void fault_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  fault::active();                 // ...so this reads the old fault plan
}

void fault_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  fault::active();
}

void fault_bound_too_late() {
  fault::active();                 // reads the old fault plan
  world::Scope scope;              // FLAG: constructed after first use
}

void repl_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  repl::active();                  // ...so this reads the old policy
}

void repl_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  repl::active();
}

void repl_bound_too_late() {
  repl::active();                  // reads the old policy
  world::Scope scope;              // FLAG: constructed after first use
}

void arena_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  arena::current();                // ...so this reads the old arena
}

void arena_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  arena::current();
}

void arena_bound_too_late() {
  arena::current();                // reads the old arena
  world::Scope scope;              // FLAG: constructed after first use
}

void prof_temporary_guard() {
  world::Scope();                  // FLAG: unbinds at end of expression
  prof::meter();                   // ...so this reads the old lane
}

void prof_heap_guard() {
  auto* scope = new world::Scope;  // FLAG: scope-decoupled guard
  (void)scope;
  prof::meter();
}

void prof_bound_too_late() {
  prof::meter();                   // reads the old lane
  world::Scope scope;              // FLAG: constructed after first use
}

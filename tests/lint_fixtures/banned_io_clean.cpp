// Fixture: simulation code returns its result; the output module formats it
// onto a stream its caller hands in.
#include <ostream>

int service(int faults) { return faults * 3; }

void report(std::ostream& os, int faults) {
  os << "serviced " << faults << " faults, cost " << service(faults) << "\n";
}

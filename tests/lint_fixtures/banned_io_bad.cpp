// Fixture: simulation code prints and logs its own result instead of
// returning it to the caller.
#include <cstdio>
#include <fstream>

int service(int faults) {
  const int cost = faults * 3;
  std::printf("serviced %d faults\n", faults);
  std::ofstream log("service.log");
  log << cost << "\n";
  return cost;
}

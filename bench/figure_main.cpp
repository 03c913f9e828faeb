// Entry point of every figNN_* binary; CMake defines ODTN_FIGURE per target.
namespace odtn::bench {
int figure_main(int number, int argc, char** argv);
}
int main(int argc, char** argv) {
  return odtn::bench::figure_main(ODTN_FIGURE, argc, argv);
}

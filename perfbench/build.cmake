# The benchmark's C++ programs. run.py configures the repository with
# -DCMAKE_PROJECT_INCLUDE=<this file>; the first inclusion (at the end of the
# top-level project() call) defers a second one to the end of the top-level
# CMakeLists.txt, when every library target exists. The programs therefore
# compile with exactly the flags, definitions and build type of the program.
if(NOT PERFBENCH_BUILD_FILE)
  # Deferred arguments are expanded when the call runs, so keep the path in
  # a variable that still names this file then.
  set(PERFBENCH_BUILD_FILE "${CMAKE_CURRENT_LIST_FILE}")
  cmake_language(DEFER CALL include "${PERFBENCH_BUILD_FILE}")
  return()
endif()

add_executable(perfbench_inproc ${CMAKE_CURRENT_LIST_DIR}/inproc.cpp)
target_link_libraries(perfbench_inproc PRIVATE
  gaplan_grid gaplan_server gaplan_domains gaplan_core gaplan_analysis
  gaplan_obs gaplan_util gaplan_warnings)

add_executable(perfbench_micro ${CMAKE_CURRENT_LIST_DIR}/micro.cpp)
target_link_libraries(perfbench_micro PRIVATE
  gaplan_dist gaplan_server gaplan_grid gaplan_domains gaplan_core
  gaplan_obs gaplan_util gaplan_warnings)

# One zt_bench smoke run (registered as a ctest by CMakeLists.txt):
#   cmake -DZT_BENCH=<binary> -DWORKLOAD=<name> -DTRACE=0|1
#         [-DEXTRA=<more flags>] [-DEXPECT_EXIT=3] -P smoke.cmake
# By default it passes when zt_bench exits 0 and its last stdout line is
# JSON whose "correct" is true and whose "metrics" object is not empty.
# With EXPECT_EXIT=3 it passes when the watchdog aborted the run instead:
# exit code 3, a watchdog message on stderr and no result on stdout.
cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
execute_process(
  COMMAND "${ZT_BENCH}" --workload "${WORKLOAD}" --seed 1 --seconds 1
          --trace "${TRACE}" ${EXTRA}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "zt_bench ${WORKLOAD} exited with ${rc}, want "
                      "${EXPECT_EXIT}\n${err}")
endif()
string(STRIP "${out}" out)

if(NOT EXPECT_EXIT EQUAL 0)
  if(NOT err MATCHES "watchdog: .*aborting" OR NOT out STREQUAL "")
    message(FATAL_ERROR "expected a watchdog abort and no result\n${err}")
  endif()
  return()
endif()

string(REGEX REPLACE "^.*\n" "" last "${out}")
string(JSON correct ERROR_VARIABLE error GET "${last}" correct)
if(error)
  message(FATAL_ERROR "last line is not a zt_bench result: ${error}\n${last}")
endif()
string(JSON metrics ERROR_VARIABLE error LENGTH "${last}" metrics)
if(error OR NOT correct OR metrics EQUAL 0)
  message(FATAL_ERROR "zt_bench ${WORKLOAD} result failed its checks: ${last}")
endif()
message(STATUS "${last}")
